(** Seeded open-loop synthetic load for the serving layer, and the
    exactly-once audit around it — the measurement half of
    [bench --serve-bench] and the CI serve-smoke gate.

    The arrival process is open-loop (Schroeder et al.'s distinction:
    arrivals do not wait for completions, so queueing delay is
    visible, not hidden by admission of the load generator itself):
    Poisson arrivals at [rate_rps], tenants drawn from a Zipf-skewed
    distribution, kernel sizes from a small/medium/large mix, a slice
    of requests with deliberately tight deadlines.  Everything is
    drawn from one {!Sim.Prng} stream, so a (seed, spec) pair is one
    reproducible workload.

    Every request's thunk bumps a per-request execution counter and
    computes a size-keyed checksum; the audit then counts {e lost}
    (admitted but never executed), {e duplicated} (executed more than
    once), and {e mismatched} (wrong checksum) requests — the
    zero-lost/zero-duplicated acceptance gate — alongside the latency
    distribution (p50/p99), goodput (deadline-met completions per
    second of wall time), and the reject rate. *)

type spec = {
  requests : int;
  tenants : int;  (** Zipf-skewed: tenant k has weight 1/(k+1) *)
  rate_rps : float;  (** Poisson arrival rate; 0 = submit as fast as
                         possible (closed submission, still async) *)
  seed : int;
  slo_s : float;  (** default deadline, relative to arrival *)
  tight_frac : float;  (** fraction of requests with slo/10 deadlines *)
  sizes : (int * float) list;  (** (kernel n, weight) mix *)
}

let default_spec =
  {
    requests = 100_000;
    tenants = 8;
    rate_rps = 50_000.;
    seed = 0x5E12E;
    slo_s = 0.05;
    tight_frac = 0.1;
    sizes = [ (512, 0.70); (4096, 0.25); (16384, 0.05) ];
  }

type report = {
  spec : spec;
  elapsed_s : float;
  offered : int;
  admitted : int;
  rejected_full : int;
  rejected_shed : int;
  completed : int;
  failed : int;
  cancelled : int;  (** resolved as a typed {!Pool.Cancelled} *)
  restarts : int;  (** warm session restarts (from {!Pool.stats}) *)
  lost : int;  (** admitted but never resolved/executed *)
  duplicated : int;  (** executed more than once (exactly-once breach) *)
  mismatched : int;  (** wrong checksum *)
  met : int;
  missed : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_ms : float;
  pool_latency : Obs.Hist.summary;  (** the pool's own histogram view *)
  latency_per_tenant : (string * Obs.Hist.summary) list;
  goodput_rps : float;  (** deadline-met completions / elapsed *)
  throughput_rps : float;
      (** wall-clock requests/sec: {e all} completions / elapsed,
          deadline-blind — the capacity axis of the trajectory, next
          to the SLO-weighted [goodput_rps] *)
  reject_rate : float;  (** rejections / offered *)
  per_tenant : (string * int) list;  (** served per tenant *)
}

(* The mini-kernel: fill-and-fold over [n] slots through the pool's
   executor, so every request exercises par_for promotion.  The value
   depends only on (i, n): the expected checksum per size is computed
   once, serially, and any torn parallel write or mis-sliced loop
   shows up as a mismatch. *)
let kernel (n : int) (module E : Workloads.Exec.S) : int =
  let a = Array.make n 0 in
  E.par_for ~lo:0 ~hi:n (fun i -> a.(i) <- (i * 0x9E3779B1) land 0xFFFFFF);
  Array.fold_left ( + ) 0 a

let expected_checksum (n : int) : int = kernel n (module Workloads.Exec.Serial)

(* ------------------------------------------------------------------ *)

let pick_weighted (rng : Sim.Prng.t) (weights : float array) : int =
  let total = Array.fold_left ( +. ) 0. weights in
  let x = Sim.Prng.float_range rng total in
  let acc = ref 0. and chosen = ref (Array.length weights - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if x < !acc then begin
           chosen := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !chosen

let percentile (sorted : float array) (p : float) : float =
  match Array.length sorted with
  | 0 -> nan
  | n ->
      let idx = int_of_float (p *. float_of_int (n - 1)) in
      sorted.(max 0 (min (n - 1) idx))

(** [run pool spec] drives the load against [pool] and audits the
    outcome.  The submitting thread is the caller's; completions are
    awaited after the last arrival (open-loop: submission never blocks
    on service).  [await_timeout_s] bounds the post-arrival drain so a
    wedged pool yields a report with [lost > 0] instead of hanging. *)
let run ?(await_timeout_s = 120.) ?(interrupted = fun () -> false)
    (pool : Pool.t) (spec : spec) : report =
  if spec.requests < 0 then invalid_arg "Load.run: negative request count";
  let rng = Sim.Prng.create ~seed:spec.seed in
  let sizes = Array.of_list (List.map fst spec.sizes) in
  let size_weights = Array.of_list (List.map snd spec.sizes) in
  let expected = Array.map expected_checksum sizes in
  let tenant_weights =
    Array.init (max 1 spec.tenants) (fun k -> 1. /. float_of_int (k + 1))
  in
  let exec_counts = Array.init spec.requests (fun _ -> Atomic.make 0) in
  (* per request: ticket (if admitted) and its size index *)
  let tickets = Array.make spec.requests None in
  let size_of = Array.make spec.requests 0 in
  let rejected_full = ref 0 and rejected_shed = ref 0 in
  let t0 = Mclock.now_s () in
  let arrival = ref t0 in
  (* [interrupted] is polled between arrivals: a SIGINT-style stop
     request ends submission early and falls through to the normal
     drain + audit, so a Ctrl-C'd run still reports and exits clean *)
  let stopped = ref false in
  let offered = ref 0 in
  for i = 0 to spec.requests - 1 do
    if not !stopped then begin
    if interrupted () then stopped := true else begin
    incr offered;
    (* Poisson: exponential inter-arrival times *)
    if spec.rate_rps > 0. then begin
      arrival :=
        !arrival +. Sim.Prng.exponential rng ~mean:(1. /. spec.rate_rps);
      (* open-loop pacing: busy-wait to the scheduled arrival (sleepf
         granularity is far coarser than the inter-arrival times) *)
      while Mclock.now_s () < !arrival do
        Domain.cpu_relax ()
      done
    end;
    let tenant = Printf.sprintf "t%d" (pick_weighted rng tenant_weights) in
    let si = pick_weighted rng size_weights in
    size_of.(i) <- si;
    let n = sizes.(si) in
    let tight = Sim.Prng.float rng < spec.tight_frac in
    let deadline_s = if tight then spec.slo_s /. 10. else spec.slo_s in
    let counter = exec_counts.(i) in
    let work =
      (* the counter bumps at the END of the kernel, so it counts
         {e completed} executions: a chaos fault or cancellation that
         unwinds mid-kernel leaves it untouched *)
      Pool.Thunk
        (fun e ->
          let c = kernel n e in
          Atomic.incr counter;
          c)
    in
    (* DRR size units ~ relative kernel cost *)
    let size = max 1 (n / sizes.(0)) in
    (match Pool.submit pool ~tenant ~deadline_s ~size work with
    | Ok ticket -> tickets.(i) <- Some ticket
    | Error (Pool.Rejected `Queue_full) -> incr rejected_full
    | Error (Pool.Rejected `Shedding) -> incr rejected_shed
    | Error _ -> incr rejected_full)
    end
    end
  done;
  (* drain: await every admitted request *)
  let completed = ref 0 and failed = ref 0 and lost = ref 0 in
  let met = ref 0 and missed = ref 0 and mismatched = ref 0 in
  let cancelled = ref 0 in
  let sojourns = ref [] in
  Array.iteri
    (fun i ticket ->
      match ticket with
      | None -> ()
      | Some ticket -> (
          match Pool.await ~timeout_s:await_timeout_s pool ticket with
          | Ok { outcome = Pool.Checksum c; sojourn_s; met_deadline } ->
              incr completed;
              if met_deadline then incr met else incr missed;
              if c <> expected.(size_of.(i)) then incr mismatched;
              sojourns := sojourn_s :: !sojourns
          | Ok _ -> incr mismatched
          | Error Pool.Timed_out -> incr lost
          | Error (Pool.Cancelled _) -> incr cancelled
          | Error _ -> incr failed))
    tickets;
  let elapsed_s = Mclock.now_s () -. t0 in
  (* exactly-once audit over the raw execution counters: a request
     that ran twice is a duplicate regardless of what its ticket says
     (lost — admitted but unresolved — is counted off Timed_out
     above) *)
  let duplicated =
    Array.fold_left
      (fun acc c -> if Atomic.get c > 1 then acc + 1 else acc)
      0 exec_counts
  in
  let sorted = Array.of_list !sojourns in
  Array.sort compare sorted;
  let admitted =
    Array.fold_left
      (fun acc t -> match t with Some _ -> acc + 1 | None -> acc)
      0 tickets
  in
  let mean_ms =
    if Array.length sorted = 0 then nan
    else
      1e3 *. Array.fold_left ( +. ) 0. sorted /. float_of_int (Array.length sorted)
  in
  let ps = Pool.stats pool in
  {
    spec;
    elapsed_s;
    offered = !offered;
    admitted;
    rejected_full = !rejected_full;
    rejected_shed = !rejected_shed;
    completed = !completed;
    failed = !failed;
    cancelled = !cancelled;
    restarts = ps.restarts;
    lost = !lost;
    duplicated;
    mismatched = !mismatched;
    met = !met;
    missed = !missed;
    p50_ms = 1e3 *. percentile sorted 0.50;
    p95_ms = 1e3 *. percentile sorted 0.95;
    p99_ms = 1e3 *. percentile sorted 0.99;
    mean_ms;
    pool_latency = ps.latency;
    latency_per_tenant = ps.latency_per_tenant;
    goodput_rps = (if elapsed_s > 0. then float_of_int !met /. elapsed_s else 0.);
    throughput_rps =
      (if elapsed_s > 0. then float_of_int !completed /. elapsed_s else 0.);
    reject_rate =
      (if !offered = 0 then 0.
       else
         float_of_int (!rejected_full + !rejected_shed)
         /. float_of_int !offered);
    per_tenant = ps.sched.per_tenant;
  }

(** The audit holds iff nothing was lost, duplicated or corrupted, and
    at least one request completed (the rule of [Net.Netload.audit_ok]). *)
let audit_ok (r : report) : bool =
  r.lost = 0 && r.duplicated = 0 && r.mismatched = 0 && r.completed > 0

let pp_report (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf
    "@[<v>offered %d, admitted %d, rejected %d (full %d, shed %d), reject \
     rate %.3f@,\
     completed %d (met %d, missed %d), failed %d, cancelled %d, restarts \
     %d, lost %d, duplicated %d, mismatched %d@,\
     latency %s@,\
     throughput %.0f req/s (goodput %.0f req/s) over %.2f s@,\
     served per tenant: %a@]"
    r.offered r.admitted
    (r.rejected_full + r.rejected_shed)
    r.rejected_full r.rejected_shed r.reject_rate r.completed r.met r.missed
    r.failed r.cancelled r.restarts r.lost r.duplicated r.mismatched
    (* the latencies are those of the completed requests *)
    (if r.completed = 0 then "no samples"
     else
       Printf.sprintf "p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean %.3f ms"
         r.p50_ms r.p95_ms r.p99_ms r.mean_ms)
    r.throughput_rps r.goodput_rps r.elapsed_s
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (t, n) -> Format.fprintf ppf "%s=%d" t n))
    r.per_tenant
