(* The socket serving fabric (lib/net): the wire codec — roundtrip
   under arbitrary chunking, resync after malformed bodies, typed
   version-mismatch skips, latched death on oversized frames — the
   deterministic router policies (tenant-hash stability, JSQ
   tie-breaking, the size-aware small shard that never queues behind
   large work), the virtual-clock micro-batcher the benchmark still
   names, the shard layer's one pool ticket per request with
   exactly-once delivery and cancel, and a loopback server/client
   smoke with a full lost/duplicated/mismatched audit.

   Codec, router, and batch tests are pure (no sockets, no clocks);
   the shard and server tests use single-domain polling pools so they
   hold on a 1-core CI host. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Wire codec: generators. *)

let gen_string_n max =
  QCheck.Gen.(string_size ~gen:printable (int_bound max))

let gen_payload : Net.Wire.payload QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Net.Wire.Synth { n }) (int_bound 100_000);
        map2
          (fun name scale -> Net.Wire.Kernel { name; scale })
          (gen_string_n 24) (int_bound 1000);
        map (fun src -> Net.Wire.Prog { src }) (gen_string_n 2000);
      ])

let gen_status : Net.Wire.status QCheck.Gen.t =
  QCheck.Gen.oneofl
    [
      Net.Wire.Done { met = true };
      Net.Wire.Done { met = false };
      Net.Wire.Rejected_full;
      Net.Wire.Rejected_shed;
      Net.Wire.Rejected_draining;
      Net.Wire.Cancelled `Explicit;
      Net.Wire.Cancelled `Deadline;
      Net.Wire.Cancelled `Lease;
      Net.Wire.Failed;
      Net.Wire.Closed;
    ]

let gen_frame : Net.Wire.frame QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Net.Wire.Hello { client }) (gen_string_n 40);
        map (fun shards -> Net.Wire.Hello_ok { shards }) (int_bound 64);
        map2
          (fun (ticket, tenant) (deadline_us, (size, payload)) ->
            Net.Wire.Submit { ticket; tenant; deadline_us; size; payload })
          (pair (int_bound 0xFFFFFF) (gen_string_n 16))
          (pair (int_bound 10_000_000) (pair (int_bound 0xFFFF) gen_payload));
        map (fun ticket -> Net.Wire.Cancel { ticket }) (int_bound 0xFFFFFF);
        map2
          (fun (ticket, status) (value, (sojourn_us, info)) ->
            Net.Wire.Response { ticket; status; value; sojourn_us; info })
          (pair (int_bound 0xFFFFFF) gen_status)
          (pair (int_bound max_int) (pair (int_bound 0xFFFFFF) (gen_string_n 60)));
        return Net.Wire.Metrics_request;
        map (fun body -> Net.Wire.Metrics { body }) (gen_string_n 400);
        map (fun pending -> Net.Wire.Drain { pending }) (int_bound 0xFFFF);
        return Net.Wire.Bye;
      ])

(* feed [s] to [dec] in chunks drawn from [rng] *)
let feed_chunked rng (dec : Net.Wire.Decoder.t) (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let k = 1 + Random.State.int rng (min 7 (n - !pos)) in
    Net.Wire.Decoder.feed_string dec (String.sub s !pos k);
    pos := !pos + k
  done

let prop_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip under arbitrary chunking" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 5) gen_frame) int))
    (fun (frames, salt) ->
      let rng = Random.State.make [| salt |] in
      let dec = Net.Wire.Decoder.create () in
      let image = String.concat "" (List.map Net.Wire.encode frames) in
      feed_chunked rng dec image;
      let rec pull acc =
        match Net.Wire.Decoder.next dec with
        | `Frame f -> pull (f :: acc)
        | `Await -> List.rev acc
        | `Skip _ | `Dead _ -> QCheck.Test.fail_report "skip/dead on valid stream"
      in
      pull [] = frames)

let test_roundtrip_every_split () =
  (* one representative frame, split at every byte boundary *)
  let f =
    Net.Wire.Submit
      {
        ticket = 42;
        tenant = "tenant-7";
        deadline_us = 125_000;
        size = 9;
        payload = Net.Wire.Kernel { name = "mergesort"; scale = 3 };
      }
  in
  let s = Net.Wire.encode f in
  for cut = 1 to String.length s - 1 do
    let dec = Net.Wire.Decoder.create () in
    Net.Wire.Decoder.feed_string dec (String.sub s 0 cut);
    check (Printf.sprintf "await at cut %d" cut) true
      (Net.Wire.Decoder.next dec = `Await);
    Net.Wire.Decoder.feed_string dec
      (String.sub s cut (String.length s - cut));
    check (Printf.sprintf "frame at cut %d" cut) true
      (Net.Wire.Decoder.next dec = `Frame f);
    check (Printf.sprintf "drained at cut %d" cut) true
      (Net.Wire.Decoder.next dec = `Await)
  done

let test_resync_after_bad_body () =
  (* hand-build a frame with an unknown tag, then a good frame: the
     decoder must skip the first (typed) and decode the second *)
  let good = Net.Wire.encode (Net.Wire.Cancel { ticket = 7 }) in
  let bad =
    let b = Buffer.create 16 in
    Buffer.add_int32_be b 6l;
    (* len: vers + tag + 4 body bytes *)
    Buffer.add_uint8 b Net.Wire.version;
    Buffer.add_uint8 b 250;
    (* unknown tag *)
    Buffer.add_string b "XYZW";
    Buffer.contents b
  in
  let dec = Net.Wire.Decoder.create () in
  Net.Wire.Decoder.feed_string dec (bad ^ good);
  (match Net.Wire.Decoder.next dec with
  | `Skip (Net.Wire.Bad_tag { tag }) -> check_int "skipped tag" 250 tag
  | _ -> Alcotest.fail "expected Skip Bad_tag");
  check "resynced to next frame" true
    (Net.Wire.Decoder.next dec = `Frame (Net.Wire.Cancel { ticket = 7 }));
  check_int "one skip counted" 1 (Net.Wire.Decoder.skipped dec)

let test_truncated_body_is_bad_body () =
  (* a Cancel frame whose body claims 6 bytes but carries garbage
     shorter than the ticket field: Bad_body, then resync *)
  let b = Buffer.create 16 in
  Buffer.add_int32_be b 4l;
  (* vers + tag + only 2 of the 4 ticket bytes *)
  Buffer.add_uint8 b Net.Wire.version;
  Buffer.add_uint8 b 4;
  Buffer.add_string b "\x00\x01";
  let good = Net.Wire.encode Net.Wire.Bye in
  let dec = Net.Wire.Decoder.create () in
  Net.Wire.Decoder.feed_string dec (Buffer.contents b ^ good);
  (match Net.Wire.Decoder.next dec with
  | `Skip (Net.Wire.Bad_body _) -> ()
  | _ -> Alcotest.fail "expected Skip Bad_body");
  check "stream continues" true (Net.Wire.Decoder.next dec = `Frame Net.Wire.Bye)

let test_trailing_bytes_rejected () =
  (* a well-formed Cancel body with 3 extra bytes inside the frame *)
  let b = Buffer.create 16 in
  Buffer.add_int32_be b 9l;
  Buffer.add_uint8 b Net.Wire.version;
  Buffer.add_uint8 b 4;
  Buffer.add_int32_be b 7l;
  Buffer.add_string b "pad";
  let dec = Net.Wire.Decoder.create () in
  Net.Wire.Decoder.feed_string dec (Buffer.contents b);
  match Net.Wire.Decoder.next dec with
  | `Skip (Net.Wire.Bad_body { reason; _ }) ->
      check "mentions trailing" true
        (String.length reason > 0
        && String.ends_with ~suffix:"trailing bytes" reason)
  | _ -> Alcotest.fail "expected Skip Bad_body on trailing bytes"

let test_version_mismatch_typed () =
  let s = Net.Wire.encode (Net.Wire.Hello { client = "old" }) in
  let bs = Bytes.of_string s in
  Bytes.set_uint8 bs 4 99;
  (* stamp a future version *)
  let good = Net.Wire.encode Net.Wire.Metrics_request in
  let dec = Net.Wire.Decoder.create () in
  Net.Wire.Decoder.feed_string dec (Bytes.to_string bs ^ good);
  (match Net.Wire.Decoder.next dec with
  | `Skip (Net.Wire.Bad_version { got }) -> check_int "typed version" 99 got
  | _ -> Alcotest.fail "expected Skip Bad_version");
  check "new-version frames still flow" true
    (Net.Wire.Decoder.next dec = `Frame Net.Wire.Metrics_request)

let test_oversized_frame_kills () =
  let dec = Net.Wire.Decoder.create ~max_frame:64 () in
  let b = Buffer.create 8 in
  Buffer.add_int32_be b 65l;
  Buffer.add_string b "~~~~";
  Net.Wire.Decoder.feed_string dec (Buffer.contents b);
  (match Net.Wire.Decoder.next dec with
  | `Dead (Net.Wire.Oversized { len; max }) ->
      check_int "len" 65 len;
      check_int "max" 64 max
  | _ -> Alcotest.fail "expected Dead Oversized");
  (* latched: even after feeding a valid frame, still dead *)
  Net.Wire.Decoder.feed_string dec (Net.Wire.encode Net.Wire.Bye);
  (match Net.Wire.Decoder.next dec with
  | `Dead _ -> ()
  | _ -> Alcotest.fail "Dead must latch");
  (* and encode refuses to build one *)
  check "encode refuses oversized" true
    (match
       Net.Wire.encode ~max_frame:8
         (Net.Wire.Metrics { body = String.make 64 'x' })
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Router policies: pure, deterministic, table-tested. *)

let test_tenant_hash_stable () =
  let depths = [| 5; 0; 9; 2 |] in
  for k = 0 to 99 do
    let tenant = Printf.sprintf "tenant-%d" k in
    let s1 = Net.Router.route Net.Router.Tenant_hash ~depths ~tenant ~size:1 in
    let s2 =
      Net.Router.route Net.Router.Tenant_hash ~depths:[| 0; 0; 0; 0 |] ~tenant
        ~size:999
    in
    check (Printf.sprintf "affinity %s" tenant) true (s1 = s2);
    check "in range" true (s1 >= 0 && s1 < 4)
  done;
  (* the hash actually spreads: 100 tenants over 4 shards must hit
     every shard (FNV-1a would have to be badly broken not to) *)
  let hit = Array.make 4 false in
  for k = 0 to 99 do
    hit.(Net.Router.route Net.Router.Tenant_hash ~depths
           ~tenant:(Printf.sprintf "tenant-%d" k) ~size:1)
    <- true
  done;
  check "spreads over all shards" true (Array.for_all Fun.id hit)

let test_jsq_argmin_and_ties () =
  let r depths = Net.Router.route Net.Router.Jsq ~depths ~tenant:"t" ~size:1 in
  check_int "picks the shortest" 2 (r [| 4; 3; 1; 3 |]);
  check_int "tie breaks to lowest index" 1 (r [| 4; 2; 2; 2 |]);
  check_int "all equal -> shard 0" 0 (r [| 7; 7; 7 |]);
  check_int "single shard" 0 (r [| 42 |])

let test_size_aware_small_never_blocked () =
  let policy = Net.Router.Size_aware { small_max = 4 } in
  (* virtual scenario: large requests have piled 100 deep everywhere
     except the small shard; a small request still goes to shard 0,
     and a large request never does, no matter how empty shard 0 is *)
  let depths = [| 0; 100; 100 |] in
  check_int "small -> small shard" 0
    (Net.Router.route policy ~depths ~tenant:"a" ~size:4);
  check_int "large avoids small shard even when empty" 1
    (Net.Router.route policy ~depths:[| 0; 3; 7 |] ~tenant:"a" ~size:5);
  (* large load balances over the non-small shards *)
  check_int "large JSQ over the rest" 2
    (Net.Router.route policy ~depths:[| 0; 9; 3 |] ~tenant:"a" ~size:100);
  (* simulate a stream: larges keep arriving, smalls interleave; no
     small request is ever placed behind the large backlog *)
  let depths = [| 0; 0; 0 |] in
  for i = 1 to 50 do
    let size = if i mod 3 = 0 then 1 else 64 in
    let s = Net.Router.route policy ~depths ~tenant:"t" ~size in
    depths.(s) <- depths.(s) + size;
    if size = 1 then check (Printf.sprintf "small %d isolated" i) true (s = 0)
    else check (Printf.sprintf "large %d off the small shard" i) true (s <> 0)
  done

let test_policy_parse () =
  check "hash" true (Net.Router.policy_of_string "hash" = Some Net.Router.Tenant_hash);
  check "jsq" true (Net.Router.policy_of_string "jsq" = Some Net.Router.Jsq);
  check "size" true
    (Net.Router.policy_of_string ~small_max:7 "size-aware"
    = Some (Net.Router.Size_aware { small_max = 7 }));
  check "garbage" true (Net.Router.policy_of_string "lifo" = None)

(* Whenever the router says it reads no depth for a request, any two
   depth snapshots must route that request to the same shard: the
   shard layer then skips probing its pools. *)
let prop_reads_depths =
  let gen =
    QCheck.Gen.(
      let* policy =
        oneof
          [
            return Net.Router.Tenant_hash;
            return Net.Router.Jsq;
            map
              (fun small_max -> Net.Router.Size_aware { small_max })
              (frequency [ (4, int_range (-2) 40); (1, int) ]);
          ]
      in
      let* shards = int_range 1 6 in
      let* size = frequency [ (4, int_range (-2) 48); (1, int) ] in
      let* tenant = gen_string_n 12 in
      let depth = int_bound 1000 in
      let* a = array_repeat shards depth and* b = array_repeat shards depth in
      return (policy, shards, size, tenant, a, b))
  in
  QCheck.Test.make ~name:"router: a route that reads no depth ignores them"
    ~count:2000 (QCheck.make gen)
    (fun (policy, shards, size, tenant, a, b) ->
      Net.Router.reads_depths policy ~shards ~size
      || Net.Router.route policy ~depths:a ~tenant ~size
         = Net.Router.route policy ~depths:b ~tenant ~size)

(* ------------------------------------------------------------------ *)
(* Micro-batcher: explicit clock, no threads. *)

let test_batch_count_flush () =
  let b = Net.Batch.create ~max:3 ~delay_s:1.0 in
  check "hold 1" true (Net.Batch.add b ~now:0.0 "a" = `Hold);
  check "hold 2" true (Net.Batch.add b ~now:0.1 "b" = `Hold);
  (match Net.Batch.add b ~now:0.2 "c" with
  | `Flush l -> check "arrival order" true (l = [ "a"; "b"; "c" ])
  | `Hold -> Alcotest.fail "expected count flush");
  check_int "empty after flush" 0 (Net.Batch.pending b);
  let st = Net.Batch.stats b in
  check_int "one flush" 1 st.flushes;
  check_int "three items" 3 st.flushed_items;
  check_int "count-triggered" 1 st.full_flushes

let test_batch_age_flush () =
  let b = Net.Batch.create ~max:100 ~delay_s:0.010 in
  ignore (Net.Batch.add b ~now:1.000 "x");
  ignore (Net.Batch.add b ~now:1.004 "y");
  check "not yet" true (Net.Batch.poll b ~now:1.009 = None);
  (match Net.Batch.poll b ~now:1.0101 with
  | Some l -> check "aged out in order" true (l = [ "x"; "y" ])
  | None -> Alcotest.fail "expected age flush");
  check "idle poll" true (Net.Batch.poll b ~now:9.9 = None)

let test_batch_remove_and_drain () =
  let b = Net.Batch.create ~max:10 ~delay_s:1.0 in
  List.iter (fun x -> ignore (Net.Batch.add b ~now:0. x)) [ 1; 2; 3; 4 ];
  check "removes first match" true (Net.Batch.remove b ~f:(fun x -> x mod 2 = 0) = Some 2);
  check "miss" true (Net.Batch.remove b ~f:(fun x -> x > 9) = None);
  check "drain keeps arrival order" true (Net.Batch.drain b = [ 1; 3; 4 ]);
  check "drain empty" true (Net.Batch.drain b = [])

(* ------------------------------------------------------------------ *)
(* Shard layer: routing, one pool ticket per request, exactly-once
   delivery. *)

let pool_config ?(cap = 4096) () : Serve.Pool.config =
  {
    Serve.Pool.default_config with
    runtime =
      {
        Par.Runtime.default_config with
        domains = 1;
        heart_us = 100.;
      };
    sched = { Serve.Sched.default_config with cap };
    lease_s = 0.;
    default_slo_s = 30.;
  }

let shard_config ?(shards = 2) () : Net.Shard.config =
  {
    Net.Shard.default_config with
    shards;
    pool = pool_config ();
    policy = Net.Router.Size_aware { small_max = 4 };
  }

let test_shard_roundtrip_mixed () =
  let t = Net.Shard.create ~config:(shard_config ()) () in
  let expect_small = Serve.Load.expected_checksum 128 in
  let expect_large = Serve.Load.expected_checksum 8192 in
  let tickets =
    List.init 60 (fun i ->
        let small = i mod 3 <> 0 in
        let n = if small then 128 else 8192 in
        let size = if small then 1 else 16 in
        match
          Net.Shard.submit t ~tenant:(Printf.sprintf "t%d" (i mod 5)) ~size
            ~deadline_s:30.
            (Serve.Pool.Thunk (Serve.Load.kernel n))
        with
        | Ok tk -> (tk, small)
        | Error _ -> Alcotest.failf "submit %d rejected" i)
  in
  List.iter
    (fun (tk, small) ->
      match Net.Shard.await ~timeout_s:60. t tk with
      | Ok { Serve.Pool.outcome = Serve.Pool.Checksum c; _ } ->
          check_int "checksum" (if small then expect_small else expect_large) c
      | Ok _ -> Alcotest.fail "unexpected outcome shape"
      | Error e -> Alcotest.failf "await failed: %a" Serve.Pool.pp_error e)
    tickets;
  let st = Net.Shard.close t in
  check_int "all submitted" 60 st.submitted;
  (* small-shard isolation held: the 40 smalls, and nothing else, went
     to shard 0 *)
  check_int "large work avoided the small shard" 40 st.per_shard.(0).routed;
  let resolved_after = Net.Shard.submit t ~tenant:"late" (Serve.Pool.Thunk (fun _ -> 0)) in
  check "closed shard refuses" true (resolved_after = Error Serve.Pool.Pool_closed)

let small_work = Serve.Pool.Thunk (Serve.Load.kernel 64)

let submit_ok ?(size = 1) ?on_resolve t tenant w =
  match Net.Shard.submit t ~tenant ~size ?on_resolve w with
  | Ok tk -> tk
  | Error _ -> Alcotest.fail "submit rejected"

let await_ok t tk =
  match Net.Shard.await ~timeout_s:1. t tk with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "not resolved within 1 s: %a" Serve.Pool.pp_error e

(* Poll [f] until it holds or [timeout_s] passes; its final verdict. *)
let wait_until ?(timeout_s = 10.) f =
  let stop = Unix.gettimeofday () +. timeout_s in
  while (not (f ())) && Unix.gettimeofday () < stop do
    Thread.delay 0.001
  done;
  f ()

(* Submit a request that holds its pool until [latch] opens, and wait
   until it runs, so what the pool is given next queues behind it. *)
let hold t (latch : bool Atomic.t) : unit =
  let started = Atomic.make false in
  ignore
    (submit_ok t "hold"
       (Serve.Pool.Thunk
          (fun _ ->
            Atomic.set started true;
            while not (Atomic.get latch) do
              Thread.delay 1e-4
            done;
            0)));
  check "the holder runs" true (wait_until (fun () -> Atomic.get started))

let test_shard_cancel_queued () =
  let t = Net.Shard.create ~config:(shard_config ~shards:1 ()) () in
  let latch = Atomic.make false in
  Fun.protect ~finally:(fun () ->
      Atomic.set latch true;
      ignore (Net.Shard.close t))
  @@ fun () ->
  hold t latch;
  let resolved = ref None in
  let tk = submit_ok t "a" ~on_resolve:(fun r -> resolved := Some r) small_work in
  check "cancel hits the queued request" true (Net.Shard.cancel t tk);
  (match !resolved with
  | Some (Error (Serve.Pool.Cancelled `Explicit)) -> ()
  | _ -> Alcotest.fail "expected a typed Cancelled resolution");
  check "second cancel misses" true (not (Net.Shard.cancel t tk))

(* Queued requests either ran (the pool drained them) or resolved typed
   at close — never lost. *)
let ran_or_closed t tks =
  List.iter
    (fun tk ->
      match Net.Shard.try_result t tk with
      | Some (Ok _) | Some (Error Serve.Pool.Pool_closed) -> ()
      | Some (Error e) ->
          Alcotest.failf "unexpected error: %a" Serve.Pool.pp_error e
      | None -> Alcotest.fail "queued request lost at close")
    tks

let test_shard_close_drains_queued () =
  let t = Net.Shard.create ~config:(shard_config ~shards:1 ()) () in
  let latch = Atomic.make false in
  hold t latch;
  let tks = List.init 5 (fun i -> submit_ok t (Printf.sprintf "t%d" i) small_work) in
  (* open the latch only once close has begun, which the shard shows by
     refusing work, so the five are still queued when it starts *)
  let opener =
    Thread.create
      (fun () ->
        ignore
          (wait_until (fun () ->
               Net.Shard.submit t ~tenant:"probe" ~on_resolve:ignore small_work
               = Error Serve.Pool.Pool_closed));
        Atomic.set latch true)
      ()
  in
  let st = Net.Shard.close t in
  Thread.join opener;
  ran_or_closed t tks;
  check "close reports the policy" true (st.policy = "size-aware")

let test_shard_idle_sends_at_once () =
  (* an idle pool runs a lone small at once, well inside [await_ok]'s
     second *)
  let t = Net.Shard.create ~config:(shard_config ()) () in
  Fun.protect ~finally:(fun () -> ignore (Net.Shard.close t)) @@ fun () ->
  await_ok t (submit_ok t "a" small_work)

let test_shard_cancel_running () =
  let t = Net.Shard.create ~config:(shard_config ~shards:1 ()) () in
  Fun.protect ~finally:(fun () -> ignore (Net.Shard.close t)) @@ fun () ->
  let started = Atomic.make false and resolved = Atomic.make None in
  let work =
    Serve.Pool.Thunk
      (fun (module E : Workloads.Exec.S) ->
        Atomic.set started true;
        (* ~100 s of polling work: only the cancel can end it in time *)
        E.par_for ~lo:0 ~hi:1_000_000 (fun _ -> Unix.sleepf 0.0001);
        0)
  in
  let tk = submit_ok t "a" ~on_resolve:(fun r -> Atomic.set resolved (Some r)) work in
  check "the request runs" true (wait_until (fun () -> Atomic.get started));
  check "cancel reaches it" true (Net.Shard.cancel t tk);
  check "it unwinds with a typed Cancelled" true
    (wait_until (fun () ->
         Atomic.get resolved = Some (Error (Serve.Pool.Cancelled `Explicit))))

let test_shard_one_ticket_per_request () =
  let t = Net.Shard.create ~config:(shard_config ()) () in
  let tks =
    List.init 40 (fun i ->
        let size = if i mod 4 = 0 then 16 else 1 in
        submit_ok ~size t (Printf.sprintf "t%d" (i mod 3)) small_work)
  in
  List.iter (await_ok t) tks;
  let st = Net.Shard.close t in
  check_int "all submitted" 40 st.submitted;
  check_int "each request is one pool ticket" st.submitted
    (Array.fold_left
       (fun n (ss : Net.Shard.shard_stats) -> n + ss.pool.submitted)
       0 st.per_shard);
  Array.iteri
    (fun i (ss : Net.Shard.shard_stats) ->
      check_int (Printf.sprintf "shard %d: on the shard it was routed to" i)
        ss.routed ss.pool.submitted)
    st.per_shard

let test_shard_retry_backoff_counts () =
  (* the pool's only work is a retry waiting out a 10-20 s backoff: the
     JSQ router must still see it *)
  let pool =
    { (pool_config ()) with retries = 1; retry_backoff_s = 20.; retry_backoff_max_s = 20. }
  in
  let t = Net.Shard.create ~config:{ (shard_config ~shards:1 ()) with pool } () in
  Fun.protect ~finally:(fun () -> ignore (Net.Shard.close t)) @@ fun () ->
  let fault = Serve.Pool.Thunk (fun _ -> raise (Par.Chaos.Injected { domain = 0; beat = 0 })) in
  ignore (submit_ok ~size:16 t "f" fault);
  check "the first attempt failed into backoff" true
    (wait_until (fun () -> (Net.Shard.stats t).per_shard.(0).pool.retried = 1));
  check_int "the retry still counts toward depth" 1 (Net.Shard.depths t).(0)

(* ------------------------------------------------------------------ *)
(* Loopback server: end-to-end smoke with the full audit. *)

let server_config ?(shards = 2) () : Net.Server.config =
  { Net.Server.default_config with shard = shard_config ~shards () }

let test_server_loopback_audit () =
  let srv =
    Net.Server.create ~config:(server_config ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let addr = Net.Server.bound_addr srv in
  let spec =
    {
      Net.Netload.default_spec with
      requests = 600;
      conns = 2;
      window = 32;
      sizes = [ (128, 0.8); (8192, 0.2) ];
      slo_s = 30.;
      tight_frac = 0.;
      drain_timeout_s = 60.;
    }
  in
  let r = Net.Netload.run addr spec in
  check_int "nothing lost" 0 r.lost;
  check_int "nothing duplicated" 0 r.duplicated;
  check_int "nothing corrupted" 0 r.mismatched;
  check_int "everything accounted" r.submitted
    (r.completed + r.rejected + r.cancelled + r.failed + r.closed);
  check "all completed under generous deadlines" true (r.completed = 600);
  let st = Net.Server.stop srv in
  check "server saw the submits" true (st.submits >= 600);
  check "responses flowed" true (st.responses >= 600);
  check_int "no framing deaths" 0 st.dead_conns

(* A load run whose connections fail must not pass its audit on the
   ones left: against a port with no listener every planned request
   counts as lost.  A window below one is refused up front, before any
   connection waits for fewer than zero requests in flight.  The port
   stays bound, never listening, so nothing else can take it. *)
let test_netload_failed_conns_lost () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
      in
      let addr = Net.Server.Tcp { host = "127.0.0.1"; port } in
      let spec = { Net.Netload.default_spec with requests = 10; conns = 2 } in
      (match Net.Netload.run addr { spec with window = 0 } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "window 0 accepted");
      let r = Net.Netload.run addr spec in
      check_int "every planned request lost" 10 r.lost;
      check "the audit fails" false (Net.Netload.audit_ok r);
      let lines =
        String.split_on_char '\n' (Format.asprintf "%a" Net.Netload.pp_report r)
      in
      List.iter
        (fun ci ->
          let prefix = Printf.sprintf "connection %d failed: " ci in
          check (prefix ^ "reported") true
            (List.exists (String.starts_with ~prefix) lines))
        [ 0; 1 ];
      check "empty latency classes print no samples, not nan" true
        (List.mem "rtt small no samples" lines
        && not (List.exists (fun l -> List.mem "nan" (String.split_on_char ' ' l)) lines)))

let test_server_survives_departed_peers () =
  (* peers that hang up with replies still queued for them: the
     server's writes then fail with EPIPE, which must stay on that
     connection instead of killing the process with SIGPIPE *)
  let srv =
    Net.Server.create ~config:(server_config ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let addr = Net.Server.bound_addr srv in
  for _ = 1 to 20 do
    let c = Net.Client.connect addr in
    for _ = 1 to 50 do
      Net.Client.send c Net.Wire.Metrics_request
    done;
    Net.Client.close c
  done;
  let c = Net.Client.connect addr in
  check_int "still serving" 2 (Net.Client.shards c);
  Net.Client.close c;
  ignore (Net.Server.stop srv)

let test_server_hello_shards () =
  let srv =
    Net.Server.create ~config:(server_config ~shards:3 ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let c = Net.Client.connect (Net.Server.bound_addr srv) in
  check_int "hello advertises shards" 3 (Net.Client.shards c);
  Net.Client.close c;
  ignore (Net.Server.stop srv)

let test_server_drain_rejects_new () =
  let srv =
    Net.Server.create ~config:(server_config ~shards:1 ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let addr = Net.Server.bound_addr srv in
  let c = Net.Client.connect addr in
  (* queue a few requests, then stop the server while holding the
     connection open: stop must flush typed responses for everything *)
  let tks =
    List.init 8 (fun _ ->
        Net.Client.submit c ~tenant:"t" ~size:1 (Net.Wire.Synth { n = 2048 }))
  in
  let stopper = Thread.create (fun () -> ignore (Net.Server.stop srv)) () in
  List.iter
    (fun tk ->
      match Net.Client.await ~timeout_s:60. c tk with
      | Some _ -> ()  (* completed or typed-rejected; never silent *)
      | None -> Alcotest.fail "connection died with a response owed")
    tks;
  Thread.join stopper;
  Net.Client.close c

(* ------------------------------------------------------------------ *)
(* Per-ticket memory: every layer forgets a ticket once it has been
   delivered, so the live heap tracks requests in flight. *)

let test_shard_reads_once () =
  let t = Net.Shard.create ~config:(shard_config ()) () in
  let latch = Atomic.make false in
  Fun.protect ~finally:(fun () ->
      Atomic.set latch true;
      ignore (Net.Shard.close t))
  @@ fun () ->
  let delivered = Some (Error Serve.Pool.Delivered) in
  let tk = submit_ok t "a" small_work in
  await_ok t tk;
  check "repeat await is Delivered" true
    (Checks.at_once "repeat await" (fun () -> Some (Net.Shard.await ~timeout_s:5. t tk))
    = delivered);
  check "try_result after the read" true (Net.Shard.try_result t tk = delivered);
  Checks.at_once "await of a ticket never issued" (fun () ->
      match Net.Shard.await ~timeout_s:2. t { tk with pt = tk.pt + 1000 } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "await of a ticket never issued did not raise");
  (* a hook ticket is delivered through its hook and never stored *)
  let hooked = Atomic.make false in
  let h = submit_ok t "a" ~on_resolve:(fun _ -> Atomic.set hooked true) small_work in
  check "the hook fired" true (wait_until (fun () -> Atomic.get hooked));
  check "a hook ticket is not stored" true (Net.Shard.try_result t h = delivered);
  check "cancel of a delivered hook ticket misses" false (Net.Shard.cancel t h);
  (* nor is one still pending: no read can race its hook *)
  hold t latch;
  let fired = Atomic.make false in
  let q = submit_ok t "a" ~on_resolve:(fun _ -> Atomic.set fired true) small_work in
  check "a pending hook ticket reads Delivered at once" true
    (Checks.at_once "await of a pending hook ticket" (fun () ->
         Some (Net.Shard.await ~timeout_s:5. t q))
    = delivered);
  check "try_result of it too" true (Net.Shard.try_result t q = delivered);
  check "it had not resolved" false (Atomic.get fired);
  Atomic.set latch true;
  check "its hook still fires" true (wait_until (fun () -> Atomic.get fired));
  (* a shard index out of range: reads raise, cancel misses *)
  List.iter
    (fun shard ->
      let forged = { tk with shard } in
      (match Net.Shard.await ~timeout_s:2. t forged with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "await on shard %d did not raise" shard);
      (match Net.Shard.try_result t forged with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "try_result on shard %d did not raise" shard);
      check (Printf.sprintf "cancel on shard %d misses" shard) false
        (Net.Shard.cancel t forged))
    [ -1; 2 ]

(* Drive [n] small requests through [t], [window] in flight, each
   resolved through a hook that accounts for it the way Net.Server's
   does.  A submit the shard refuses is answered on the spot, as the
   server answers it, and the driver then waits for a completion
   before it submits again.  Returns how many were refused; every
   admitted request must complete. *)
let drive_hooked (t : Net.Shard.t) ~(window : int) ~(n : int) : int =
  let m = Mutex.create () and cv = Condition.create () in
  let inflight = ref 0 and finished = ref 0 and bad = ref 0 and refused = ref 0 in
  let on_resolve res =
    Mutex.lock m;
    (match res with
    | Ok { Serve.Pool.outcome = Serve.Pool.Checksum 1; _ } -> ()
    | _ -> incr bad);
    decr inflight;
    incr finished;
    Condition.signal cv;
    Mutex.unlock m
  in
  let wait_while p =
    while p () do
      Condition.wait cv m
    done
  in
  let work = Serve.Pool.Thunk (fun _ -> 1) in
  Mutex.lock m;
  for _ = 1 to n do
    wait_while (fun () -> !inflight >= window);
    incr inflight;
    let seen = !finished in
    Mutex.unlock m;
    let r = Net.Shard.submit t ~tenant:"t" ~on_resolve work in
    Mutex.lock m;
    match r with
    | Ok (_ : Net.Shard.ticket) -> ()
    | Error (Serve.Pool.Rejected `Queue_full) ->
        decr inflight;
        incr refused;
        wait_while (fun () -> !finished = seen && !inflight > 0)
    | Error e ->
        Mutex.unlock m;
        Alcotest.failf "submit failed: %a" Serve.Pool.pp_error e
  done;
  wait_while (fun () -> !inflight > 0);
  Mutex.unlock m;
  check_int "every admitted request completed" 0 !bad;
  !refused

let with_shard (cfg : Net.Shard.config) (body : Net.Shard.t -> unit) : unit =
  let t = Net.Shard.create ~config:cfg () in
  Fun.protect ~finally:(fun () -> ignore (Net.Shard.close t)) (fun () -> body t)

(* 1,000,000 small requests through a 2-shard fabric, 256 in flight:
   each is one pool ticket, which the shard must read once from the
   pool's hook. *)
let test_shard_memory_flat () =
  with_shard (shard_config ()) @@ fun t ->
  ignore (drive_hooked t ~window:256 ~n:100_000 : int);
  let before = Checks.live_words () in
  check_int "refused" 0 (drive_hooked t ~window:256 ~n:900_000);
  Checks.check_flat ~before ~n:900_000 ()

(* The same against a one-deep pool queue, which refuses a share of the
   submits outright: a refused submit must not use up a shard ticket,
   which would hold the answered set's watermark and keep every later
   answer. *)
let test_shard_direct_memory_flat () =
  let cfg = shard_config () in
  with_shard { cfg with pool = pool_config ~cap:1 () } @@ fun t ->
  ignore (drive_hooked t ~window:8 ~n:10_000 : int);
  let before = Checks.live_words () in
  let refused = drive_hooked t ~window:8 ~n:100_000 in
  Checks.check_flat ~before ~n:100_000 ();
  if refused < 10_000 then
    Alcotest.failf "only %d of 100,000 submits were refused" refused

(* Two threads close a 2-shard fabric whose small pool is held by a
   latched request with five more queued behind it, and the latch opens
   shortly after: both calls wait for the pools, so both return final
   statistics, and every queued ticket ran or resolved typed. *)
let test_shard_concurrent_close () =
  let t = Net.Shard.create ~config:(shard_config ()) () in
  let latch = Atomic.make false in
  hold t latch;
  let tks = List.init 5 (fun i -> submit_ok t (Printf.sprintf "t%d" i) small_work) in
  let second = ref None in
  let closer = Thread.create (fun () -> second := Some (Net.Shard.close t)) () in
  let opener =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Atomic.set latch true)
      ()
  in
  let first = Net.Shard.close t in
  Thread.join closer;
  Thread.join opener;
  List.iter
    (fun (which, (st : Net.Shard.stats)) ->
      check_int (which ^ " close: submitted") 6 st.submitted;
      Array.iteri
        (fun i (ss : Net.Shard.shard_stats) ->
          check
            (Printf.sprintf "%s close: shard %d has runtime stats" which i)
            true (ss.pool.runtime <> None))
        st.per_shard)
    [ ("first", first); ("second", Option.get !second) ];
  ran_or_closed t tks

(* A client connection sending [Synth 16] requests, [window] in flight,
   and reading each response once, in ticket order, as soon as it and
   every earlier one have arrived. *)
type pipe = { c : Net.Client.t; mutable sent : int; mutable read : int }

let read_arrived (p : pipe) (f : Net.Client.response -> unit) : unit =
  let rec go () =
    if p.read < p.sent then
      match Net.Client.try_response p.c p.read with
      | Some r ->
          f r;
          p.read <- p.read + 1;
          go ()
      | None -> ()
  in
  go ()

let pump (p : pipe) ~(window : int) ~(n : int) (f : Net.Client.response -> unit) :
    unit =
  for _ = 1 to n do
    Net.Client.wait_inflight_below p.c ~submitted:p.sent ~window;
    read_arrived p f;
    ignore (Net.Client.submit p.c ~tenant:"t" ~size:1 (Net.Wire.Synth { n = 16 }) : int);
    p.sent <- p.sent + 1
  done;
  Net.Client.drain p.c ~submitted:p.sent ~timeout_s:60.;
  read_arrived p f;
  check_int "every response read" p.sent p.read

let with_server (cfg : Net.Server.config) (body : pipe -> unit) : unit =
  let srv =
    Net.Server.create ~config:cfg (Net.Server.Tcp { host = "127.0.0.1"; port = 0 }) ()
  in
  let c = Net.Client.connect (Net.Server.bound_addr srv) in
  Fun.protect ~finally:(fun () ->
      Net.Client.close c;
      ignore (Net.Server.stop srv))
  @@ fun () ->
  body { c; sent = 0; read = 0 };
  check_int "no unexpected responses" 0 (Net.Client.duplicates c)

let expect_done (r : Net.Client.response) : unit =
  match r.status with
  | Net.Wire.Done _ when r.value = Serve.Load.expected_checksum 16 -> ()
  | _ -> Alcotest.fail "a request did not complete with its checksum"

(* 200,000 requests over a loopback server and client, 128 in flight. *)
let test_server_memory_flat () =
  with_server (server_config ()) @@ fun p ->
  pump p ~window:128 ~n:20_000 expect_done;
  let before = Checks.live_words () in
  pump p ~window:128 ~n:180_000 expect_done;
  Checks.check_flat ~before ~n:180_000 ()

(* A request the pool takes at once can finish, and its response hook
   run, before [Shard.submit] returns, and a refused one is answered
   on the spot; the server must not record either finished ticket for
   [Cancel] afterwards.  With a one-deep pool queue and 512 requests in
   flight, a third to two thirds of them are rejected. *)
let test_server_rejections_leave_nothing () =
  let cfg = server_config ~shards:1 () in
  with_server { cfg with shard = { cfg.shard with pool = pool_config ~cap:1 () } }
  @@ fun p ->
  let rejected = ref 0 in
  let count (r : Net.Client.response) =
    if r.status = Net.Wire.Rejected_full then incr rejected else expect_done r
  in
  pump p ~window:512 ~n:10_000 count;
  let before = Checks.live_words () in
  pump p ~window:512 ~n:50_000 count;
  Checks.check_flat ~bound:5_000 ~before ~n:50_000 ();
  if !rejected < 10_000 then
    Alcotest.failf "only %d of 60,000 requests were rejected" !rejected

(* A scripted peer in place of a server: it answers [Hello], then
   writes the [Response] frames [play] hands it, for as long as the
   test has not called [finish]. *)
let scripted_peer () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  (* scripted ticket lists, oldest first; [None] ends the script *)
  let m = Mutex.create () and cv = Condition.create () and script = Queue.create () in
  let next_line () =
    Mutex.lock m;
    while Queue.is_empty script do
      Condition.wait cv m
    done;
    let line = Queue.pop script in
    Mutex.unlock m;
    line
  in
  let peer () =
    let fd, _ = Unix.accept lfd in
    Unix.close lfd;
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let dec = Net.Wire.Decoder.create () in
    let buf = Bytes.create 4096 in
    let rec frame () =
      match Net.Wire.Decoder.next dec with
      | `Frame f -> f
      | `Skip _ -> frame ()
      | `Dead _ -> failwith "scripted peer: framing lost"
      | `Await ->
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n = 0 then failwith "scripted peer: client hung up";
          Net.Wire.Decoder.feed dec buf 0 n;
          frame ()
    in
    let send f =
      let s = Net.Wire.encode f in
      ignore (Unix.write_substring fd s 0 (String.length s) : int)
    in
    (match frame () with
    | Net.Wire.Hello _ -> send (Net.Wire.Hello_ok { shards = 1 })
    | _ -> failwith "scripted peer: expected Hello");
    let rec play () =
      match next_line () with
      | None -> ()
      | Some tickets ->
          List.iter
            (fun ticket ->
              send
                (Net.Wire.Response
                   { ticket; status = Net.Wire.Done { met = true }; value = 7;
                     sojourn_us = 0; info = "" }))
            tickets;
          play ()
    in
    play ()
  in
  let th = Thread.create peer () in
  let push line =
    Mutex.lock m;
    Queue.push line script;
    Condition.signal cv;
    Mutex.unlock m
  in
  let play tickets = push (Some tickets) in
  let finish () =
    push None;
    Thread.join th
  in
  (Net.Server.Tcp { host = "127.0.0.1"; port }, play, finish)

let test_client_unexpected_responses () =
  let addr, play, finish = scripted_peer () in
  let c = Net.Client.connect addr in
  Fun.protect ~finally:(fun () ->
      finish ();
      Net.Client.close c)
  @@ fun () ->
  let tk = Net.Client.submit c ~tenant:"t" (Net.Wire.Synth { n = 1 }) in
  (* a ticket the client never issued, then the real one *)
  play [ tk + 1; tk ];
  (match Net.Client.await ~timeout_s:10. c tk with
  | Some { value = 7; _ } -> ()
  | _ -> Alcotest.fail "the response for the issued ticket was not read");
  (* the same ticket again, after it was read *)
  play [ tk ];
  ignore (wait_until ~timeout_s:5. (fun () -> Net.Client.duplicates c >= 2) : bool);
  check_int "received" 1 (Net.Client.received c);
  check_int "duplicates" 2 (Net.Client.duplicates c);
  check "a read response is not returned again" true
    (Checks.at_once "repeat await" (fun () -> Net.Client.await ~timeout_s:5. c tk) = None);
  Checks.at_once "await of a ticket never issued" (fun () ->
      match Net.Client.await ~timeout_s:2. c (tk + 1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "await of a ticket never issued did not raise")

(* A wire [Cancel] goes through the connection's ticket map to
   [Net.Shard.cancel].  On one shard of one domain, a [Prog] loop of a
   million iterations (about half a second) holds the pool while a
   [Synth] of the same tenant queues behind it, and the client cancels
   the [Synth]. *)
let spin_src =
  "spin: [.]\n  n := 1000000\n  jump loop\n\nloop: [.]\n  if-jump n, done\n\
  \  n := n - 1\n  jump loop\n\ndone: [.]\n  halt\n"

let test_server_wire_cancel () =
  with_server (server_config ~shards:1 ()) @@ fun p ->
  let spin = Net.Client.submit p.c ~tenant:"t" (Net.Wire.Prog { src = spin_src }) in
  let queued = Net.Client.submit p.c ~tenant:"t" (Net.Wire.Synth { n = 16 }) in
  Net.Client.cancel p.c queued;
  (match Net.Client.await ~timeout_s:30. p.c queued with
  | Some { status = Net.Wire.Cancelled `Explicit; _ } -> ()
  | Some _ -> Alcotest.fail "the queued request was not cancelled"
  | None -> Alcotest.fail "no response for the queued request");
  (match Net.Client.await ~timeout_s:60. p.c spin with
  | Some { status = Net.Wire.Done _; _ } -> ()
  | _ -> Alcotest.fail "the loop did not complete");
  check_int "one response per ticket" 2 (Net.Client.received p.c)

(* A wire [Kernel] above scale 32 is refused typed and never reaches
   the shard: at the u16 scale maximum, plus_reduce alone would
   allocate about 210 GB. *)
let test_server_kernel_scale_bound () =
  let srv =
    Net.Server.create ~config:(server_config ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let c = Net.Client.connect (Net.Server.bound_addr srv) in
  let tk =
    Net.Client.submit c ~tenant:"t"
      (Net.Wire.Kernel { name = "plus_reduce"; scale = 33 })
  in
  let r = Net.Client.await ~timeout_s:30. c tk in
  Net.Client.close c;
  let st = Net.Server.stop srv in
  (match r with
  | Some { status = Net.Wire.Failed; info = "kernel scale out of range"; _ } -> ()
  | Some _ -> Alcotest.fail "scale 33 was not refused as out of range"
  | None -> Alcotest.fail "no response for the scale-33 request");
  check_int "the request never reached the shard" 0 st.shard.submitted

(* ------------------------------------------------------------------ *)
(* Address errors: a refused address ends typed and keeps no socket. *)

(* the lowest free descriptor: a socket that leaks moves it *)
let lowest_free_fd () : Unix.file_descr =
  let fd = Unix.dup Unix.stdin in
  Unix.close fd;
  fd

let test_server_bind_refused_keeps_no_socket () =
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close holder) @@ fun () ->
  Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen holder 1;
  let port =
    match Unix.getsockname holder with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
  in
  let before = lowest_free_fd () in
  for _ = 1 to 20 do
    match
      Net.Server.create ~config:(server_config ~shards:1 ())
        (Net.Server.Tcp { host = "127.0.0.1"; port })
        ()
    with
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
    | srv ->
        ignore (Net.Server.stop srv);
        Alcotest.fail "bound a port another socket listens on"
  done;
  check "no descriptor leaked" true (lowest_free_fd () = before)

(* [.invalid] never resolves (RFC 6761): both ends refuse it instead
   of falling back to loopback, where this server listens *)
let test_unresolvable_host_refused () =
  let srv =
    Net.Server.create ~config:(server_config ~shards:1 ())
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let port =
    match Net.Server.bound_addr srv with
    | Net.Server.Tcp { port; _ } -> port
    | Net.Server.Unix_path _ -> Alcotest.fail "no port"
  in
  let host = "no-such-host.invalid" in
  (match
     Net.Server.create ~config:(server_config ~shards:1 ())
       (Net.Server.Tcp { host; port = 0 })
       ()
   with
  | exception Net.Server.Unresolved h -> Alcotest.(check string) "host" host h
  | other ->
      ignore (Net.Server.stop other);
      Alcotest.fail "a server listens on an unresolvable host");
  (match Net.Client.connect (Net.Server.Tcp { host; port }) with
  | exception Net.Server.Unresolved h -> Alcotest.(check string) "host" host h
  | c ->
      Net.Client.close c;
      Alcotest.fail "a client connected to an unresolvable host");
  check_int "the loopback server saw no connection" 0
    (Net.Server.stop srv).conns

let suite =
  ( "net",
    [
      Alcotest.test_case "wire: split at every byte" `Quick
        test_roundtrip_every_split;
      Alcotest.test_case "wire: resync after unknown tag" `Quick
        test_resync_after_bad_body;
      Alcotest.test_case "wire: truncated body is typed" `Quick
        test_truncated_body_is_bad_body;
      Alcotest.test_case "wire: trailing bytes rejected" `Quick
        test_trailing_bytes_rejected;
      Alcotest.test_case "wire: version mismatch is a typed skip" `Quick
        test_version_mismatch_typed;
      Alcotest.test_case "wire: oversized frame latches dead" `Quick
        test_oversized_frame_kills;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      Alcotest.test_case "router: tenant-hash affinity is stable" `Quick
        test_tenant_hash_stable;
      Alcotest.test_case "router: jsq argmin with low-index ties" `Quick
        test_jsq_argmin_and_ties;
      Alcotest.test_case "router: small never queues behind large" `Quick
        test_size_aware_small_never_blocked;
      Alcotest.test_case "router: policy names parse" `Quick test_policy_parse;
      Alcotest.test_case "batch: count-bound flush" `Quick
        test_batch_count_flush;
      Alcotest.test_case "batch: age-bound flush on a virtual clock" `Quick
        test_batch_age_flush;
      Alcotest.test_case "batch: remove and drain" `Quick
        test_batch_remove_and_drain;
      Alcotest.test_case "shard: mixed sizes roundtrip exactly once" `Slow
        test_shard_roundtrip_mixed;
      Alcotest.test_case "shard: cancel a queued request" `Quick
        test_shard_cancel_queued;
      Alcotest.test_case "shard: close never loses queued work" `Slow
        test_shard_close_drains_queued;
      Alcotest.test_case "shard: a lone small on an idle pool is sent at once"
        `Quick test_shard_idle_sends_at_once;
      Alcotest.test_case "shard: cancel reaches a running request" `Quick
        test_shard_cancel_running;
      Alcotest.test_case "shard: one pool ticket per request" `Quick
        test_shard_one_ticket_per_request;
      Alcotest.test_case "shard: a retry in backoff counts toward depth" `Quick
        test_shard_retry_backoff_counts;
      Alcotest.test_case "server: loopback audit" `Slow
        test_server_loopback_audit;
      Alcotest.test_case "server: peers that hang up never kill it" `Quick
        test_server_survives_departed_peers;
      Alcotest.test_case "server: hello advertises shards" `Quick
        test_server_hello_shards;
      Alcotest.test_case "server: drain flushes typed responses" `Slow
        test_server_drain_rejects_new;
      Alcotest.test_case "shard: a result is read once, a hook's never stored"
        `Quick test_shard_reads_once;
      Alcotest.test_case "shard: live heap flat over 1 M hooked requests" `Quick
        test_shard_memory_flat;
      Alcotest.test_case "shard: live heap flat over direct and refused submits"
        `Quick test_shard_direct_memory_flat;
      Alcotest.test_case "server: live heap flat over 200k loopback requests"
        `Quick test_server_memory_flat;
      Alcotest.test_case "server: rejected submits leave no cancel entries"
        `Quick test_server_rejections_leave_nothing;
      Alcotest.test_case "client: unexpected responses are dropped and counted"
        `Quick test_client_unexpected_responses;
      Alcotest.test_case "netload: a failed connection's requests are lost"
        `Quick test_netload_failed_conns_lost;
      Alcotest.test_case "server: a wire Cancel reaches a queued request" `Quick
        test_server_wire_cancel;
      QCheck_alcotest.to_alcotest prop_reads_depths;
      Alcotest.test_case "server: a wire Kernel above scale 32 is refused" `Quick
        test_server_kernel_scale_bound;
      Alcotest.test_case "shard: concurrent closes both wait for the pools"
        `Quick test_shard_concurrent_close;
      Alcotest.test_case "server: a refused bind keeps no socket" `Quick
        test_server_bind_refused_keeps_no_socket;
      Alcotest.test_case "server and client refuse an unresolvable host"
        `Quick test_unresolvable_host_refused;
    ] )
