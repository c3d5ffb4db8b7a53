(** The [net-closed] workload: a closed loop over loopback TCP against
    [Net.Server] in its documented configuration — 2 shards of 1
    domain, size-aware routing, micro-batches of up to 8 small requests
    with a 200 µs delay bound.  One client connection keeps a fixed
    window of requests in flight; the mix is the heavy large class
    (sizes 256/8192/262144, weights 85/10/5) with loose deadlines.

    Latency is the client-side round trip: from [Net.Client.submit]
    until the response arrives. *)

open Perfbench_core
open Common

let window = 64
let setups = 5
let warmup = 500
let block_s = 0.5  (** traced/untraced interleave period of the untraced run *)

(* The client, the shard and its pools keep every answered ticket, so a
   server and its connection hold memory in proportion to the requests
   they have served.  Each is replaced by a fresh one, outside the
   timed blocks, once it has served this many: the peak RSS stays
   bounded and does not grow with throughput or run length. *)
let lifetime = 20_000

let sizes = [| 256; 8192; 262144 |]
let size_weights = [| 0.85; 0.10; 0.05 |]
let tenants = Array.init 8 (Printf.sprintf "t%d")
let tenant_weights = Array.init 8 (fun k -> 1. /. float_of_int (k + 1))
let small_max = 4
let slo_s = 0.5

let server_config ?tracer () : Net.Server.config =
  let pool =
    {
      Serve.Pool.default_config with
      runtime =
        { Par.Runtime.default_config with domains = 1; heart_us = 30.; source = `Polling; tracer };
      sched = { Serve.Sched.default_config with cap = 512; panic_slack = 1e-3 };
      default_slo_s = slo_s;
      tracer;
    }
  in
  {
    Net.Server.default_config with
    shard =
      {
        Net.Shard.default_config with
        shards = 2;
        pool;
        policy = Net.Router.Size_aware { small_max };
        batch_max = 8;
        batch_delay_us = 200.;
        batch_size_max = small_max;
      };
    tracer;
  }

type req = { tenant : string; size_idx : int }

let drr_size (r : req) : int = max 1 (sizes.(r.size_idx) / sizes.(0))

(** The request stream for [seed]: tenant and size class per request. *)
let requests ~(seed : int) ~(n : int) : req array =
  let rng = Sim.Prng.create ~seed in
  Array.init n (fun _ ->
      let tenant = tenants.(Serve.Load.pick_weighted rng tenant_weights) in
      { tenant; size_idx = Serve.Load.pick_weighted rng size_weights })

let expected = Array.map Serve.Load.expected_checksum sizes

type sample = {
  req : req;
  ticket : int;
  sent : float;  (** before [Client.submit] *)
  subret : float;  (** after it returned *)
}

type conn = { srv : Net.Server.t; client : Net.Client.t }

let connect ?tracer () : conn =
  let srv =
    Net.Server.create ~config:(server_config ?tracer ()) (Net.Server.Tcp { host = "127.0.0.1"; port = 0 }) ()
  in
  { srv; client = Net.Client.connect ~client:"perfbench" (Net.Server.bound_addr srv) }

let disconnect (c : conn) : Net.Server.stats =
  Net.Client.bye c.client;
  Net.Client.close c.client;
  Net.Server.stop c.srv

type audit = { mutable attempted : int; mutable failed : int }

(* Closed loop on [c] over requests [from], [from + 1], ... (wrapping
   round [reqs]) until [until] (Mclock s) or index [upto], keeping
   [window] in flight; then drain and audit.  Returns the completed
   samples with their responses, and the next unused request index. *)
let burst ?(upto = max_int) (c : conn) (audit : audit) (reqs : req array) ~(from : int)
    ~(until : float) :
    (sample * Net.Client.response) list * int =
  let sent = ref [] in
  let i = ref from in
  (* every earlier burst was drained, so all its tickets are answered *)
  let base = Net.Client.received c.client in
  let submitted = ref 0 in
  while !i < upto && Mclock.now_s () < until do
    Net.Client.wait_inflight_below c.client ~submitted:(base + !submitted) ~window;
    let r = reqs.(!i mod Array.length reqs) in
    let t = Mclock.now_s () in
    let ticket =
      Net.Client.submit c.client ~tenant:r.tenant ~deadline_us:(int_of_float (slo_s *. 1e6))
        ~size:(drr_size r) (Net.Wire.Synth { n = sizes.(r.size_idx) })
    in
    sent := { req = r; ticket; sent = t; subret = Mclock.now_s () } :: !sent;
    incr submitted;
    incr i
  done;
  Net.Client.drain c.client ~submitted:(base + !submitted) ~timeout_s:30.;
  let done_ =
    List.filter_map
      (fun s ->
        audit.attempted <- audit.attempted + 1;
        match Net.Client.try_response c.client s.ticket with
        | Some ({ status = Net.Wire.Done _; value; _ } as resp) when value = expected.(s.req.size_idx) ->
            Some (s, resp)
        | _ ->
            audit.failed <- audit.failed + 1;
            None)
      !sent
  in
  (List.rev done_, !i)

(* Set-up: server start, connect, and a warm-up burst, audited. *)
let start ?tracer ~(seed : int) (audit : audit) : conn =
  let c = connect ?tracer () in
  let warm = requests ~seed:(seed lxor 0x3A) ~n:warmup in
  ignore (burst ~upto:warmup c audit warm ~from:0 ~until:infinity);
  c

let rtt (s, (r : Net.Client.response)) = r.at -. s.sent

(* Duplicated responses and skipped frames are audit failures too.
   The heap is collected afterwards, so the next server reuses the
   memory this one held. *)
let close_audited (audit : audit) (c : conn) : Net.Server.stats =
  let dups = Net.Client.duplicates c.client in
  let st = disconnect c in
  audit.failed <- audit.failed + dups + st.skipped;
  Gc.full_major ();
  st

(* requests are drawn from the stream in turn, wrapping at its end *)
let stream_len = 65_536

let notes ~seed ~n =
  [
    ("seed", Json.Int seed);
    ("window", Json.Int window);
    ("requests_done", Json.Int n);
    ("setups", Json.Int setups);
    ("server_lifetime", Json.Int lifetime);
    ("shards", Json.Int 2);
    ("batch_max", Json.Int 8);
    ("batch_delay_us", Json.Num 200.);
  ]

(* The untraced run: an untraced and a traced server alternate in
   [block_s] blocks; only the untraced blocks feed the latency and
   throughput metrics, and the ratio of the two RTT medians is the
   tracing overhead.  A server that has served [lifetime] requests is
   replaced between blocks. *)
let run_timed ~(seed : int) ~(seconds : float) : out =
  let audit = { attempted = 0; failed = 0 } in
  let fresh traced = start ?tracer:(if traced then Some (Obs.Trace.create ()) else None) ~seed audit in
  let setup () =
    let reqs = requests ~seed ~n:stream_len in
    (reqs, fresh false, fresh true)
  in
  let (reqs, plain, traced), setup_times =
    repeat_setup setups
      ~close:(fun (_, a, b) -> ignore (close_audited audit a); ignore (close_audited audit b))
      setup
  in
  (* index 0 untraced, 1 traced *)
  let conns = [| plain; traced |] and served = [| 0; 0 |] in
  let rtts = [| []; [] |] in
  let deadline = Mclock.now_s () +. seconds in
  let from = ref 0 and block = ref 0 and p_wall = ref 0. in
  while Mclock.now_s () < deadline do
    let k = !block mod 2 in
    let t0 = Mclock.now_s () in
    let got, next = burst conns.(k) audit reqs ~from:!from ~until:(Float.min deadline (t0 +. block_s)) in
    if k = 0 then p_wall := !p_wall +. (Mclock.now_s () -. t0);
    rtts.(k) <- Array.of_list (List.map rtt got) :: rtts.(k);
    served.(k) <- served.(k) + (next - !from);
    from := next;
    incr block;
    if served.(k) >= lifetime && Mclock.now_s () < deadline then begin
      ignore (close_audited audit conns.(k));
      conns.(k) <- fresh (k = 1);
      served.(k) <- 0
    end
  done;
  Array.iter (fun c -> ignore (close_audited audit c)) conns;
  let plain = Array.concat rtts.(0) and traced = Array.concat rtts.(1) in
  {
    metrics =
      [
        median_metric "setup_s" "s" setup_times;
        median_metric ~k:1e3 "latency_p50_ms" "ms" plain;
        pct_metric ~k:1e3 "latency_p99_ms" "ms" 0.99 plain;
        metric ~n:(Array.length plain) "throughput_rps" "req/s"
          (float_of_int (Array.length plain) /. !p_wall);
        metric ~n:(Array.length traced) "trace_overhead" "ratio"
          (Stat.median traced /. Stat.median plain);
      ];
    attempted = audit.attempted;
    failed = audit.failed;
    notes =
      notes ~seed ~n:(Array.length plain)
      @ [ ("latency_beyond_p99", Json.Int (Stat.beyond ~n:(Array.length plain) 0.99)) ];
  }

(* The traced run: traced servers, each replaced after [lifetime]
   requests; each request's round trip is a span split into the
   server's sojourn (from the response frame) and the fabric time
   around it (wire, server threads, batch wait, loopback).  Spans carry
   the request's index in the run as their ticket. *)
let run_traced ~(seed : int) ~(seconds : float) ~(spans : Spans.t) : out =
  let audit = { attempted = 0; failed = 0 } in
  let reqs = requests ~seed ~n:stream_len in
  let ns x = int_of_float (x *. 1e9) in
  let nm = Spans.intern spans in
  let rtt_n = nm "rtt" and fabric_n = nm "fabric" and sojourn_n = nm "sojourn" in
  (* per request: RTT, sojourn, submit call, and RTT of the small class *)
  let rtt_s = ref [] and sojourn_s = ref [] and submit_s = ref [] and small_rtt_s = ref [] in
  let recorded = ref 0 in
  let record ((s, (r : Net.Client.response)) as x) =
    let sojourn = float_of_int r.sojourn_us *. 1e-6 in
    let split = r.at -. sojourn in
    let ticket = !recorded in
    incr recorded;
    let root = Spans.add spans ~name:rtt_n ~parent:(-1) ~ticket ~start_ns:(ns s.sent) ~end_ns:(ns r.at) in
    ignore (Spans.add spans ~name:fabric_n ~parent:root ~ticket ~start_ns:(ns s.sent) ~end_ns:(ns split));
    ignore (Spans.add spans ~name:sojourn_n ~parent:root ~ticket ~start_ns:(ns split) ~end_ns:(ns r.at));
    rtt_s := rtt x :: !rtt_s;
    sojourn_s := sojourn :: !sojourn_s;
    submit_s := (s.subret -. s.sent) :: !submit_s;
    if drr_size s.req <= small_max then small_rtt_s := rtt x :: !small_rtt_s
  in
  let deadline = Mclock.now_s () +. seconds in
  let rec lives from stats =
    let c = start ~tracer:(Obs.Trace.create ()) ~seed audit in
    let got, next = burst ~upto:(from + lifetime) c audit reqs ~from ~until:deadline in
    List.iter record got;
    let stats = close_audited audit c :: stats in
    if Mclock.now_s () < deadline then lives next stats else stats
  in
  let stats = lives 0 [] in
  let worst_residual_ns =
    List.fold_left (fun acc (_, r) -> max acc (abs r)) 0 (Spans.residuals spans)
  in
  let arr l = Array.of_list !l in
  let rtt_a = arr rtt_s and sojourn_a = arr sojourn_s in
  let fabric_a = Array.map2 ( -. ) rtt_a sojourn_a in
  let mean_ms a = 1e3 *. Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a)) in
  let sum f = List.fold_left (fun acc (st : Net.Server.stats) -> acc + f st) 0 stats in
  let sum_shards f = sum (fun st -> Array.fold_left (fun acc p -> acc + f p) 0 st.shard.per_shard) in
  let routed = sum_shards (fun (p : Net.Shard.shard_stats) -> p.routed) in
  let flushes = sum_shards (fun (p : Net.Shard.shard_stats) -> p.batch.flushes) in
  let items = sum_shards (fun (p : Net.Shard.shard_stats) -> p.batch.flushed_items) in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  {
    metrics =
      [
        median_metric ~k:1e3 "net.rtt_ms.p50" "ms" rtt_a;
        pct_metric ~k:1e3 "net.small_rtt_ms.p99" "ms" 0.99 (arr small_rtt_s);
        median_metric ~k:1e3 "net.sojourn_ms.p50" "ms" sojourn_a;
        pct_metric ~k:1e3 "net.sojourn_ms.p99" "ms" 0.99 sojourn_a;
        median_metric ~k:1e3 "net.fabric_ms.p50" "ms" fabric_a;
        pct_metric ~k:1e3 "net.fabric_ms.p99" "ms" 0.99 fabric_a;
        median_metric ~k:1e6 "client.submit_us.p50" "us" (arr submit_s);
        metric "server.skipped" "count" (float_of_int (sum (fun st -> st.skipped)));
        metric "shard.batched_frac" "ratio"
          (frac (sum (fun st -> st.shard.batched_members)) (sum (fun st -> st.shard.submitted)));
        metric "shard.small_shard_frac" "ratio"
          (frac (sum (fun st -> st.shard.per_shard.(0).routed)) routed);
        metric "batch.mean_fill" "count" (frac items flushes);
      ];
    attempted = audit.attempted;
    failed = audit.failed;
    notes =
      notes ~seed ~n:!recorded
      @ [
          ("servers", Json.Int (List.length stats));
          (* fabric + sojourn = RTT per request: means and worst residual *)
          ( "stage_sum",
            Json.Obj
              [
                ("fabric_ms", Json.Num (mean_ms fabric_a));
                ("sojourn_ms", Json.Num (mean_ms sojourn_a));
                ("rtt_ms", Json.Num (mean_ms rtt_a));
                ("worst_residual_ns", Json.Int worst_residual_ns);
              ] );
        ];
  }
