(** The [serve-open] workload: an open loop of seeded Poisson arrivals
    at a fixed rate into one in-process [Serve.Pool] with a 1-domain
    session, with the [Serve.Load] request mix.

    Each request is timed from its {e scheduled} arrival, so a stall —
    of the pool or of the generator — is charged to every request due
    during it, and the generator reports how late it sent each one.
    The request ends when the pool delivers its completion (its
    [on_resolve] hook fires). *)

open Perfbench_core
open Common

let rate_rps = 9000.
let setups = 5
let warmup = 500
let spin_s = 1e-3
let block_s = 1.  (** traced/untraced alternation period of the untraced run *)

let sizes = [| 512; 4096; 16384 |]
let size_weights = [| 0.70; 0.25; 0.05 |]
let tenants = Array.init 8 (Printf.sprintf "t%d")
let tenant_weights = Array.init 8 (fun k -> 1. /. float_of_int (k + 1))
let slo_s = 0.05
let tight_frac = 0.1

let pool_config ?tracer () : Serve.Pool.config =
  {
    Serve.Pool.default_config with
    runtime =
      { Par.Runtime.default_config with domains = 1; heart_us = 30.; source = `Polling; tracer };
    (* room for a multi-millisecond stall at this rate, so a host hiccup
       shows as latency, never as a rejection *)
    sched = { Serve.Sched.default_config with cap = 4096; panic_slack = 1e-3 };
    default_slo_s = slo_s;
    tracer;
  }

type req = { due : float; tenant : string; size_idx : int; tight : bool }

(** The request list for [seed]: arrival times from {!Pace.arrivals}
    and tenant, size and deadline class from a second seeded stream. *)
let requests ~(seed : int) ~(n : int) : req array =
  let due = Pace.arrivals ~seed ~rate_rps ~n in
  let rng = Sim.Prng.create ~seed:(seed lxor 0x5E12E) in
  Array.map
    (fun due ->
      let tenant = tenants.(Serve.Load.pick_weighted rng tenant_weights) in
      let size_idx = Serve.Load.pick_weighted rng size_weights in
      let tight = Sim.Prng.float rng < tight_frac in
      { due; tenant; size_idx; tight })
    due

let expected = Array.map Serve.Load.expected_checksum sizes

(* Per-request stamps, in Mclock ns.  [deliv] is written by the pool's
   completion hook; [delivered] counts those writes, so once it reaches
   the admitted count every stamp is visible to the reader. *)
type stamps = {
  due : int array;
  sent : int array;
  subret : int array;
  start : int array;
  fin : int array;
  deliv : int array;
  delivered : int Atomic.t;
  runs : int Atomic.t array;  (** completed executions per request *)
}

let stamps (n : int) : stamps =
  let z () = Array.make n 0 in
  {
    due = z ();
    sent = z ();
    subret = z ();
    start = z ();
    fin = z ();
    deliv = z ();
    delivered = Atomic.make 0;
    runs = Array.init n (fun _ -> Atomic.make 0);
  }

(* The request body: the Serve.Load mini-kernel, counted per request;
   a traced request also stamps its own start and end. *)
let work (st : stamps) ~(traced : bool) (i : int) (n : int) : Serve.Pool.work =
  if traced then
    Serve.Pool.Thunk
      (fun e ->
        st.start.(i) <- Mclock.now_ns ();
        let c = Serve.Load.kernel n e in
        st.fin.(i) <- Mclock.now_ns ();
        Atomic.incr st.runs.(i);
        c)
  else
    Serve.Pool.Thunk
      (fun e ->
        let c = Serve.Load.kernel n e in
        Atomic.incr st.runs.(i);
        c)

let submit (pool : Serve.Pool.t) (st : stamps) ~traced (i : int) (r : req) =
  let n = sizes.(r.size_idx) in
  let deadline_s = if r.tight then slo_s /. 10. else slo_s in
  Serve.Pool.submit pool ~tenant:r.tenant ~deadline_s ~size:(max 1 (n / sizes.(0)))
    ~on_resolve:(fun _ ->
      st.deliv.(i) <- Mclock.now_ns ();
      Atomic.incr st.delivered)
    (work st ~traced i n)

(* Set-up: pool start plus a closed warm-up burst, audited.  The pool
   starts from the first CPU, so its session domain lives there, and
   the generator ({!drive}) runs on the second: left to itself the
   scheduler wakes the session on the CPU of the generator that woke
   it, and the two take turns on one CPU while the other idles. *)
let start_pool ?tracer () : Serve.Pool.t * int =
  Cpus.with_cpus (fun (pool, _, _) -> pool) @@ fun () ->
  let pool = Serve.Pool.create ~config:(pool_config ?tracer ()) () in
  let bad = ref 0 in
  let tickets =
    List.init warmup (fun i ->
        let n = sizes.(i mod Array.length sizes) in
        ( n,
          Serve.Pool.submit pool ~tenant:tenants.(i mod 8) ~size:(max 1 (n / sizes.(0)))
            (Serve.Pool.Thunk (Serve.Load.kernel n)) ))
  in
  List.iter
    (fun (n, t) ->
      match t with
      | Ok t -> (
          match Serve.Pool.await ~timeout_s:30. pool t with
          | Ok { outcome = Serve.Pool.Checksum c; _ } when c = Serve.Load.expected_checksum n -> ()
          | _ -> incr bad)
      | Error _ -> incr bad)
    tickets;
  (pool, !bad)

(* How late the generator sent each request, in seconds. *)
let late (st : stamps) : float array = Array.map2 (fun d s -> s_of_ns (s - d)) st.due st.sent

type outcome = {
  attempted : int;
  failed : int;
  completed : int;
  latency_s : float array;  (** scheduled arrival -> delivery, completed requests *)
  wall_ns : int;  (** schedule start -> last delivery *)
}

(* Drive requests [lo, hi) open-loop into [pool], the schedule
   starting 1 ms from now, then audit each: one execution, the right
   checksum, one delivery. *)
let drive (pool : Serve.Pool.t) ~(traced : bool) (reqs : req array) (st : stamps) ~(lo : int)
    ~(hi : int) : outcome =
  Cpus.with_cpus (fun (_, gen, _) -> gen) @@ fun () ->
  let tickets = Array.make (hi - lo) None in
  let failed = ref 0 in
  let t0 = Mclock.now_ns () + 1_000_000 in
  let origin = if lo = 0 then 0. else reqs.(lo - 1).due in
  for i = lo to hi - 1 do
    st.due.(i) <- t0 + int_of_float ((reqs.(i).due -. origin) *. 1e9);
    ignore (Pace.wait_until ~spin_s (float_of_int st.due.(i) *. 1e-9));
    st.sent.(i) <- Mclock.now_ns ();
    let r = submit pool st ~traced i reqs.(i) in
    st.subret.(i) <- Mclock.now_ns ();
    match r with Ok t -> tickets.(i - lo) <- Some t | Error _ -> incr failed
  done;
  let admitted = ref 0 and completed = ref 0 in
  Array.iteri
    (fun j t ->
      let i = lo + j in
      match t with
      | None -> ()
      | Some t -> (
          incr admitted;
          match Serve.Pool.await ~timeout_s:30. pool t with
          | Ok { outcome = Serve.Pool.Checksum c; _ }
            when c = expected.(reqs.(i).size_idx) && Atomic.get st.runs.(i) = 1 ->
              incr completed
          | _ -> incr failed))
    tickets;
  (* completion hooks run after the ticket resolves: wait for the last *)
  let give_up = Mclock.now_s () +. 10. in
  while Atomic.get st.delivered < !admitted && Mclock.now_s () < give_up do
    Thread.delay 0.001
  done;
  failed := !failed + abs (!admitted - Atomic.get st.delivered);
  Atomic.set st.delivered 0;
  let ok = List.filter (fun i -> tickets.(i - lo) <> None && st.deliv.(i) > 0) (List.init (hi - lo) (( + ) lo)) in
  {
    attempted = hi - lo;
    failed = !failed;
    completed = !completed;
    latency_s = Array.of_list (List.map (fun i -> s_of_ns (st.deliv.(i) - st.due.(i))) ok);
    wall_ns = List.fold_left (fun acc i -> max acc st.deliv.(i)) t0 ok - t0;
  }

let notes ~seed ~n =
  [
    ("seed", Json.Int seed);
    ("rate_rps", Json.Num rate_rps);
    ("requests", Json.Int n);
    ("setups", Json.Int setups);
    ("spin_us", Json.Num (spin_s *. 1e6));
    ("block_s", Json.Num block_s);
  ]

(* The untraced run: the schedule is cut into [block_s] blocks, and
   each block gets a fresh pool, untraced and traced in turn, so one
   session is alive at a time and slow drift hits both kinds alike.
   Between blocks the heap is collected, so the peak RSS is one
   block's and not the run's.

   Latency percentiles are taken per untraced block and the median of
   those is reported: a host hiccup spoils one block, not the run.
   The tracing overhead is the median, over each traced block, of its
   p50 over the p50 of the untraced block before it. *)
let run_timed ~(seed : int) ~(seconds : float) : out =
  let n = int_of_float (rate_rps *. seconds) in
  let setup () =
    let reqs = requests ~seed ~n in
    let p, b = start_pool () in
    (reqs, p, b)
  in
  let (reqs, first, bad), setup_times =
    repeat_setup setups ~close:(fun (_, p, _) -> ignore (Serve.Pool.close p)) setup
  in
  let st = stamps n in
  (* per block, latest first: whether traced, and its sorted latencies *)
  let blocks_done = ref [] in
  let attempted = ref (setups * warmup) and failed = ref bad in
  let completed = ref 0 and wall_ns = ref 0 in
  let rec blocks k lo pool =
    let hi = ref lo in
    while !hi < n && reqs.(!hi).due < float_of_int (k + 1) *. block_s do
      incr hi
    done;
    let is_traced = k mod 2 = 1 in
    let o = drive pool ~traced:is_traced reqs st ~lo ~hi:!hi in
    ignore (Serve.Pool.close pool);
    Gc.full_major ();
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    completed := !completed + o.completed;
    wall_ns := !wall_ns + o.wall_ns;
    if o.latency_s <> [||] then blocks_done := (is_traced, Stat.sorted_copy o.latency_s) :: !blocks_done;
    if !hi < n then begin
      let tracer = if is_traced then None else Some (Obs.Trace.create ()) in
      let next, b = start_pool ?tracer () in
      attempted := !attempted + warmup;
      failed := !failed + b;
      blocks (k + 1) !hi next
    end
  in
  blocks 0 0 first;
  let blocks = Array.of_list (List.rev !blocks_done) in
  let plain = List.filter_map (fun (t, l) -> if t then None else Some l) (Array.to_list blocks) in
  let per_block p = Array.of_list (List.map (fun l -> Stat.percentile l p) plain) in
  let overhead =
    List.filter_map Fun.id
      (List.mapi
         (fun i (t, l) ->
           if t && i > 0 && not (fst blocks.(i - 1)) then
             Some (Stat.percentile l 0.5 /. Stat.percentile (snd blocks.(i - 1)) 0.5)
           else None)
         (Array.to_list blocks))
  in
  let pooled = Array.concat plain in
  {
    metrics =
      [
        median_metric "setup_s" "s" setup_times;
        median_metric ~k:1e3 "latency_p50_ms" "ms" (per_block 0.5);
        median_metric ~k:1e3 "latency_p99_ms" "ms" (per_block 0.99);
        metric ~n:!completed "throughput_rps" "req/s" (float_of_int !completed /. s_of_ns !wall_ns);
        median_metric "trace_overhead" "ratio" (Array.of_list overhead);
      ];
    attempted = !attempted;
    failed = !failed;
    notes =
      notes ~seed ~n
      @ [
          ("untraced_requests", Json.Int (Array.length pooled));
          ("pooled_p99_ms", Json.Num (1e3 *. Stat.percentile (Stat.sorted_copy pooled) 0.99));
          ("block_beyond_p99", Json.Int (Stat.beyond ~n:(Array.length pooled / max 1 (List.length plain)) 0.99));
          ("late_ms_p99", Json.Num (1e3 *. Stat.percentile (Stat.sorted_copy (late st)) 0.99));
        ];
  }

(* The traced run: one traced pool; every request stamped at each
   stage boundary and recorded as a span tree under its ticket. *)
let run_traced ~(seed : int) ~(seconds : float) ~(spans : Spans.t) : out =
  let n = int_of_float (rate_rps *. seconds) in
  let reqs = requests ~seed ~n in
  let pool, bad = start_pool ~tracer:(Obs.Trace.create ()) () in
  let st = stamps n in
  let o = drive pool ~traced:true reqs st ~lo:0 ~hi:n in
  let ps = Serve.Pool.close pool in
  let ok = List.filter (fun i -> st.deliv.(i) > 0 && st.fin.(i) > 0) (List.init n Fun.id) in
  let nm = Spans.intern spans in
  let stages =
    [ (nm "late", st.due, st.sent); (nm "submit", st.sent, st.subret);
      (nm "queue", st.subret, st.start); (nm "exec", st.start, st.fin);
      (nm "deliver", st.fin, st.deliv) ]
  in
  let request = nm "request" in
  List.iter
    (fun i ->
      let root =
        Spans.add spans ~name:request ~parent:(-1) ~ticket:i ~start_ns:st.due.(i) ~end_ns:st.deliv.(i)
      in
      List.iter
        (fun (name, a, b) ->
          ignore (Spans.add spans ~name ~parent:root ~ticket:i ~start_ns:a.(i) ~end_ns:b.(i)))
        stages)
    ok;
  (* lateness + submit + queue + exec + deliver against the latency *)
  let worst_residual_ns =
    List.fold_left (fun acc (_, r) -> max acc (abs r)) 0 (Spans.residuals spans)
  in
  let stage a b = Array.of_list (List.map (fun i -> s_of_ns (b.(i) - a.(i))) ok) in
  let mean_ms a b = 1e3 *. Array.fold_left ( +. ) 0. (stage a b) /. float_of_int (max 1 (List.length ok)) in
  {
    metrics =
      [
        median_metric ~k:1e6 "pool.submit_us.p50" "us" (stage st.sent st.subret);
        median_metric ~k:1e3 "pool.queue_ms.p50" "ms" (stage st.subret st.start);
        pct_metric ~k:1e3 "pool.queue_ms.p99" "ms" 0.99 (stage st.subret st.start);
        median_metric ~k:1e3 "pool.exec_ms.p50" "ms" (stage st.start st.fin);
        pct_metric ~k:1e3 "pool.exec_ms.p99" "ms" 0.99 (stage st.start st.fin);
        median_metric ~k:1e6 "pool.deliver_us.p50" "us" (stage st.fin st.deliv);
        pct_metric ~k:1e6 "pool.deliver_us.p99" "us" 0.99 (stage st.fin st.deliv);
        metric "pool.promotions_per_req" "count"
          (match ps.runtime with
          | Some r -> float_of_int r.total.promotions /. float_of_int (max 1 o.completed)
          | None -> 0.);
        median_metric ~k:1e3 "serve.latency_ms.p50" "ms" o.latency_s;
        pct_metric ~k:1e3 "loadgen.late_ms.p99" "ms" 0.99 (stage st.due st.sent);
        metric "loadgen.offered_rps" "req/s" (Pace.offered_rps (Array.map (fun (r : req) -> r.due) reqs));
      ];
    attempted = o.attempted + warmup;
    failed = o.failed + bad;
    notes =
      notes ~seed ~n
      @ [
          (* the stages tile each request's latency; their means add up
             to the mean latency, with the worst per-request residual *)
          ( "stage_sum",
            Json.Obj
              (List.map (fun (name, a, b) -> (Spans.name_of spans name ^ "_ms", Json.Num (mean_ms a b))) stages
              @ [
                  ("latency_ms", Json.Num (mean_ms st.due st.deliv));
                  ("worst_residual_ns", Json.Int worst_residual_ns);
                ]) );
        ];
  }
