(** Seeded load generation over the wire, and the end-to-end
    exactly-once audit — the network twin of {!Serve.Load}, measured
    where a caller actually sits: client-side round-trip time over a
    real socket, not pool-side sojourn.

    Submission is {e windowed closed-loop}: each connection keeps at
    most [window] requests in flight and submits the next one as soon
    as a response frees a slot.  (A fully open loop against a
    single-machine loopback server just measures the admission cap;
    the window keeps the server loaded without drowning the run in
    typed rejections, while still exposing queueing — a small request
    stuck behind a large one holds its slot and its latency shows
    it.)

    Every request is a [Synth] kernel whose checksum is a pure
    function of its size, so the client verifies each [Done] response
    against {!Serve.Load.expected_checksum} computed locally — a
    mismatch means a torn parallel write, a mis-routed response, or a
    corrupt frame.  The audit counts {b lost} (submitted, no response
    after the drain, or planned on a connection that failed),
    {b duplicated} (two responses for one ticket), and {b mismatched}
    (wrong checksum) — all must be zero. *)

type spec = {
  requests : int;  (** total across all connections *)
  conns : int;
  tenants : int;
  seed : int;
  slo_s : float;
  tight_frac : float;
  sizes : (int * float) list;  (** (synth kernel n, weight) mix *)
  small_max : int;
      (** DRR-size threshold separating the small class in the report
          (match the router's [Size_aware] threshold to see the
          head-of-line effect) *)
  window : int;  (** max in-flight per connection *)
  drain_timeout_s : float;
}

let default_spec =
  {
    requests = 100_000;
    conns = 2;
    tenants = 8;
    seed = 0x5E12E;
    slo_s = 0.5;
    tight_frac = 0.05;
    sizes = [ (256, 0.80); (4096, 0.15); (32768, 0.05) ];
    small_max = 4;
    window = 64;
    drain_timeout_s = 120.;
  }

type class_lat = { count : int; p50_ms : float; p95_ms : float; p99_ms : float }

type report = {
  spec : spec;
  elapsed_s : float;
  submitted : int;
  completed : int;
  met : int;
  missed : int;
  rejected : int;  (** all typed rejections (full / shed / draining) *)
  cancelled : int;
  failed : int;
  closed : int;
  lost : int;
      (** submitted with no response after the drain, plus every
          request planned on a connection that failed *)
  conn_errors : string list;
      (** one line per connection that failed (refused, reset, its
          server gone), naming the connection and the exception *)
  duplicated : int;
  mismatched : int;
  throughput_rps : float;  (** completed / elapsed wall clock *)
  all : class_lat;  (** client-side RTT *)
  small : class_lat;  (** requests with DRR size <= [small_max] *)
  large : class_lat;
}

let class_of (samples : float list) : class_lat =
  let a = Array.of_list samples in
  Array.sort compare a;
  {
    count = Array.length a;
    p50_ms = 1e3 *. Serve.Load.percentile a 0.50;
    p95_ms = 1e3 *. Serve.Load.percentile a 0.95;
    p99_ms = 1e3 *. Serve.Load.percentile a 0.99;
  }

(* One connection's share of the run: submit [count] requests over [c]
   with a [window]-bounded closed loop, then return the per-request
   records for the audit. *)
type rec_out = {
  ticket : int;
  size_idx : int;
  drr_size : int;
  sent : float;
}

let drive_conn (spec : spec) (c : Client.t) ~(conn_idx : int) ~(count : int) :
    rec_out array =
  let rng = Sim.Prng.create ~seed:(spec.seed + (conn_idx * 0x9E37)) in
  let sizes = Array.of_list (List.map fst spec.sizes) in
  let size_weights = Array.of_list (List.map snd spec.sizes) in
  let tenant_weights =
    Array.init (max 1 spec.tenants) (fun k -> 1. /. float_of_int (k + 1))
  in
  let base = sizes.(0) in
  let recs = Array.make count { ticket = -1; size_idx = 0; drr_size = 1; sent = 0. } in
  for i = 0 to count - 1 do
    Client.wait_inflight_below c ~submitted:i ~window:spec.window;
    let tenant = Printf.sprintf "t%d" (Serve.Load.pick_weighted rng tenant_weights) in
    let si = Serve.Load.pick_weighted rng size_weights in
    let n = sizes.(si) in
    let drr_size = max 1 (n / base) in
    let tight = Sim.Prng.float rng < spec.tight_frac in
    let deadline_us =
      int_of_float (1e6 *. (if tight then spec.slo_s /. 10. else spec.slo_s))
    in
    let sent = Mclock.now_s () in
    let ticket =
      Client.submit c ~tenant ~deadline_us ~size:drr_size (Wire.Synth { n })
    in
    recs.(i) <- { ticket; size_idx = si; drr_size; sent }
  done;
  recs

(** [run addr spec] drives [spec] against a live server at [addr] and
    audits the outcome end to end. *)
let run (addr : Server.addr) (spec : spec) : report =
  if spec.requests < 0 then invalid_arg "Netload.run: negative request count";
  if spec.conns < 1 then invalid_arg "Netload.run: need at least one connection";
  (* a window below one would wait for fewer than zero requests in
     flight, forever *)
  if spec.window < 1 then invalid_arg "Netload.run: need a window of at least one";
  let sizes = Array.of_list (List.map fst spec.sizes) in
  let expected = Array.map Serve.Load.expected_checksum sizes in
  let per_conn = Array.make spec.conns (spec.requests / spec.conns) in
  (* distribute the remainder *)
  for i = 0 to (spec.requests mod spec.conns) - 1 do
    per_conn.(i) <- per_conn.(i) + 1
  done;
  let t0 = Mclock.now_s () in
  (* a connection that fails ends its own thread, not the run: its
     planned requests are counted lost below, so a run that lost one of
     several connections cannot pass the audit on the others *)
  let results = Array.make spec.conns (Error Exit) in
  let threads =
    Array.init spec.conns (fun ci ->
        Thread.create
          (fun () ->
            results.(ci) <-
              (match
                 Client.connect ~client:(Printf.sprintf "load-%d" ci) addr
               with
              | exception e -> Error e
              | c -> (
                  match drive_conn spec c ~conn_idx:ci ~count:per_conn.(ci) with
                  | recs ->
                      Client.drain c ~submitted:per_conn.(ci)
                        ~timeout_s:spec.drain_timeout_s;
                      Ok (c, recs)
                  | exception e ->
                      Client.close c;
                      Error e)))
          ())
  in
  Array.iter Thread.join threads;
  let elapsed_s = Mclock.now_s () -. t0 in
  (* audit + latency classes *)
  let submitted = ref 0 in
  let completed = ref 0 and met = ref 0 and missed = ref 0 in
  let rejected = ref 0 and cancelled = ref 0 and failed = ref 0 in
  let closed = ref 0 and lost = ref 0 and mismatched = ref 0 in
  let duplicated = ref 0 in
  let conn_errors = ref [] in
  let all_l = ref [] and small_l = ref [] and large_l = ref [] in
  Array.iteri
    (fun ci slot ->
      match slot with
      | Error e ->
          lost := !lost + per_conn.(ci);
          conn_errors :=
            Printf.sprintf "connection %d failed: %s" ci (Printexc.to_string e)
            :: !conn_errors
      | Ok (c, recs) ->
          duplicated := !duplicated + Client.duplicates c;
          Array.iter
            (fun (r : rec_out) ->
              if r.ticket >= 0 then begin
                incr submitted;
                match Client.try_response c r.ticket with
                | None -> incr lost
                | Some resp -> (
                    match resp.status with
                    | Wire.Done { met = m } ->
                        incr completed;
                        if m then incr met else incr missed;
                        if resp.value <> expected.(r.size_idx) then
                          incr mismatched;
                        let rtt = resp.at -. r.sent in
                        all_l := rtt :: !all_l;
                        if r.drr_size <= spec.small_max then
                          small_l := rtt :: !small_l
                        else large_l := rtt :: !large_l
                    | Wire.Rejected_full | Wire.Rejected_shed
                    | Wire.Rejected_draining ->
                        incr rejected
                    | Wire.Cancelled _ -> incr cancelled
                    | Wire.Failed -> incr failed
                    | Wire.Closed -> incr closed)
              end)
            recs;
          Client.bye c;
          Client.close c)
    results;
  {
    spec;
    elapsed_s;
    submitted = !submitted;
    completed = !completed;
    met = !met;
    missed = !missed;
    rejected = !rejected;
    cancelled = !cancelled;
    failed = !failed;
    closed = !closed;
    lost = !lost;
    conn_errors = List.rev !conn_errors;
    duplicated = !duplicated;
    mismatched = !mismatched;
    throughput_rps =
      (if elapsed_s > 0. then float_of_int !completed /. elapsed_s else 0.);
    all = class_of !all_l;
    small = class_of !small_l;
    large = class_of !large_l;
  }

(** The audit holds iff nothing was lost, duplicated, or corrupted,
    and at least one request actually completed. *)
let audit_ok (r : report) : bool =
  r.lost = 0 && r.duplicated = 0 && r.mismatched = 0 && r.completed > 0

let pp_report (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf
    "@[<v>submitted %d over %d conns: completed %d (met %d, missed %d), \
     rejected %d, cancelled %d, failed %d, closed %d@,\
     audit: lost %d, duplicated %d, mismatched %d@,\
     throughput %.0f req/s over %.2f s@,\
     rtt all   n=%d p50 %.2f ms p95 %.2f ms p99 %.2f ms@,\
     rtt small n=%d p50 %.2f ms p95 %.2f ms p99 %.2f ms@,\
     rtt large n=%d p50 %.2f ms p95 %.2f ms p99 %.2f ms%a@]"
    r.submitted r.spec.conns r.completed r.met r.missed r.rejected r.cancelled
    r.failed r.closed r.lost r.duplicated r.mismatched r.throughput_rps
    r.elapsed_s r.all.count r.all.p50_ms r.all.p95_ms r.all.p99_ms
    r.small.count r.small.p50_ms r.small.p95_ms r.small.p99_ms r.large.count
    r.large.p50_ms r.large.p95_ms r.large.p99_ms
    (fun ppf -> List.iter (Format.fprintf ppf "@,%s"))
    r.conn_errors
