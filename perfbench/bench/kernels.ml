(** The [kernels] workload: the [Workloads.Real_bench] battery (all but
    knapsack, which runs in microseconds and stays a checksum check) at
    a fixed scale, run serially, then on a [Par.Runtime] session at 1
    domain, then at 2 domains — one {e pass}.  Every checksum is
    compared with the serial one.

    The end-to-end operation is one kernel call on a warm 2-domain
    session: latency percentiles are taken over the kernels' median
    call times, and throughput is kernel calls per second of a pass. *)

open Perfbench_core
open Common
module RB = Workloads.Real_bench

let scale = 8
let warm_scale = 1
let setups = 5

let battery : RB.t array =
  Array.of_list (List.filter (fun (b : RB.t) -> b.name <> "knapsack") RB.all)

let knapsack = Option.get (RB.find "knapsack")

let config ?tracer (domains : int) : Par.Runtime.config =
  { Par.Runtime.default_config with domains; source = `Polling; tracer }

type leg = { ns : int array; sums : int array; stats : Par.Runtime.stats option }

(* Every kernel once through [exec]; with [spans], a root span for the
   whole leg over one span per kernel and one per heap collection
   before it, so the children tile the leg. *)
let run_leg ?spans ~(label : string) ~(ticket : int) (exec : (module Workloads.Exec.S))
    ~(scale : int) : int array * int array =
  let r =
    Array.map (fun (b : RB.t) ->
        (* each kernel starts from a collected heap, so no kernel pays
           for its predecessor's garbage and the peak RSS repeats *)
        let g = Mclock.now_ns () in
        Gc.full_major ();
        let s = Mclock.now_ns () in
        let sum = b.run exec ~scale in
        (g, s, Mclock.now_ns (), sum))
      battery
  in
  Option.iter
    (fun sp ->
      let last = Array.length r - 1 in
      let start_ns = (fun (g, _, _, _) -> g) r.(0) and end_ns = (fun (_, _, e, _) -> e) r.(last) in
      let root = Spans.add sp ~name:(Spans.intern sp ("pass." ^ label)) ~parent:(-1) ~ticket ~start_ns ~end_ns in
      let gc = Spans.intern sp "gc" in
      Array.iteri
        (fun i (g, s, e, _) ->
          ignore (Spans.add sp ~name:gc ~parent:root ~ticket ~start_ns:g ~end_ns:s);
          ignore
            (Spans.add sp
               ~name:(Spans.intern sp (Printf.sprintf "kernel.%s.%s" battery.(i).name label))
               ~parent:root ~ticket ~start_ns:s ~end_ns:e))
        r)
    spans;
  (Array.map (fun (_, s, e, _) -> e - s) r, Array.map (fun (_, _, _, c) -> c) r)

let serial ?spans ~ticket ~scale () : leg =
  let ns, sums = run_leg ?spans ~label:"serial" ~ticket (module Workloads.Exec.Serial) ~scale in
  { ns; sums; stats = None }

(* Timing happens inside the session, so domain spawn and join are not
   part of any kernel's time. *)
let session ?spans ?tracer ~domains ~ticket ~scale () : leg =
  let (ns, sums), st =
    Par.Runtime.run ~config:(config ?tracer domains) (fun () ->
        run_leg ?spans ~label:(Printf.sprintf "par%d" domains) ~ticket
          (module Par.Runtime.Exec) ~scale)
  in
  { ns; sums; stats = Some st }

let mismatches (reference : int array) (l : leg) : int =
  let bad = ref 0 in
  Array.iteri (fun i c -> if c <> reference.(i) then incr bad) l.sums;
  !bad

let total_s (l : leg) : float = s_of_ns (Array.fold_left ( + ) 0 l.ns)

(* Set-up: a scale-1 pass through all three executors, plus the
   knapsack checksum check, so code and allocator are warm and every
   executor has been checked once before timing starts. *)
let setup () : int =
  let reference = serial ~ticket:0 ~scale:warm_scale () in
  let bad =
    mismatches reference.sums (session ~domains:1 ~ticket:0 ~scale:warm_scale ())
    + mismatches reference.sums (session ~domains:2 ~ticket:0 ~scale:warm_scale ())
  in
  let ks = RB.run_serial knapsack ~scale in
  let kp, _ =
    Par.Runtime.run ~config:(config 2) (fun () -> knapsack.run (module Par.Runtime.Exec) ~scale)
  in
  bad + if kp <> ks then 1 else 0

let notes ~(passes : int) : (string * Json.t) list =
  [
    ("scale", Json.Int scale);
    ("passes", Json.Int passes);
    ("setups", Json.Int setups);
    ("kernels", Json.Arr (Array.to_list (Array.map (fun (b : RB.t) -> Json.Str b.name) battery)));
  ]

(* The untraced run: after the set-ups and one serial reference leg,
   alternate an untraced and a traced 2-domain leg until the time is
   up.  Only the untraced legs feed the end-to-end numbers; the traced
   ones give the tracing overhead. *)
let run_timed ~(seconds : float) : out =
  let bad = ref 0 in
  let (), setup_times = repeat_setup setups ~close:ignore (fun () -> bad := !bad + setup ()) in
  let reference = (serial ~ticket:0 ~scale ()).sums in
  let deadline = Mclock.now_s () +. seconds in
  let plain = ref [] and traced = ref [] in
  while !plain = [] || Mclock.now_s () < deadline do
    let p = session ~domains:2 ~ticket:0 ~scale () in
    let t = session ~tracer:(Obs.Trace.create ()) ~domains:2 ~ticket:0 ~scale () in
    bad := !bad + mismatches reference p + mismatches reference t;
    plain := p :: !plain;
    traced := total_s t :: !traced
  done;
  let plain = Array.of_list !plain and traced = Array.of_list !traced in
  let n = Array.length plain in
  let k = Array.length battery in
  let pass_s = Array.map total_s plain in
  (* each kernel's median call time: the latency percentiles are taken
     over these, one per kernel *)
  let per_kernel = Array.init k (fun i -> Stat.median (Array.map (fun l -> s_of_ns l.ns.(i)) plain)) in
  {
    metrics =
      [
        median_metric "setup_s" "s" setup_times;
        pct_metric ~k:1e3 "latency_p50_ms" "ms" 0.5 per_kernel;
        pct_metric ~k:1e3 "latency_p99_ms" "ms" 0.99 per_kernel;
        metric ~n "throughput_rps" "req/s" (float_of_int k /. Stat.median pass_s);
        metric ~n "trace_overhead" "ratio" (Stat.median traced /. Stat.median pass_s);
      ];
    attempted = (setups * ((3 * k) + 2)) + ((1 + (2 * n)) * k);
    failed = !bad;
    notes = notes ~passes:n;
  }

(* The traced run: whole passes — serial, then 1 domain, then 2
   domains, with the runtime's own tracer attached — each kernel call
   inside a span. *)
let run_traced ~(seconds : float) ~(spans : Spans.t) : out =
  let bad = ref 0 in
  let (), _ = repeat_setup setups ~close:ignore (fun () -> bad := !bad + setup ()) in
  let deadline = Mclock.now_s () +. seconds in
  let legs = ref [] in
  while !legs = [] || Mclock.now_s () < deadline do
    let ticket = List.length !legs in
    let session d = session ~spans ~tracer:(Obs.Trace.create ()) ~domains:d ~ticket ~scale () in
    let s = serial ~spans ~ticket ~scale () in
    let p1 = session 1 in
    let p2 = session 2 in
    bad := !bad + mismatches s.sums p1 + mismatches s.sums p2;
    legs := (s, p1, p2) :: !legs
  done;
  let legs = Array.of_list (List.rev !legs) in
  let n = Array.length legs in
  let k = Array.length battery in
  let kernel f i = Array.map (fun l -> s_of_ns (f l).ns.(i)) legs in
  let serial_of (s, _, _) = s and par1 (_, p, _) = p and par2 (_, _, p) = p in
  let speedup f =
    Stat.geomean
      (Array.init k (fun i -> Stat.median (kernel serial_of i) /. Stat.median (kernel f i)))
  in
  let p2_s = Array.map (fun l -> total_s (par2 l)) legs in
  let per_pass f = Array.map (fun l -> f (Option.get (par2 l).stats) (total_s (par2 l))) legs in
  let count name f = median_metric name "count" (per_pass (fun s _ -> float_of_int (f s))) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  (* the 2-domain pass span less the gc and kernel spans that tile it *)
  let residual_us =
    Array.of_list
      (List.filter_map
         (fun (id, r) -> if Spans.name spans id = "pass.par2" then Some (float_of_int r *. 1e-3) else None)
         (Spans.residuals spans))
  in
  let per_kernel =
    List.concat_map
      (fun i ->
        let name = battery.(i).name in
        [
          median_metric (Printf.sprintf "kernel.%s.serial_s" name) "s" (kernel serial_of i);
          median_metric (Printf.sprintf "kernel.%s.par1_s" name) "s" (kernel par1 i);
          median_metric (Printf.sprintf "kernel.%s.par2_s" name) "s" (kernel par2 i);
        ])
      (List.init k Fun.id)
  in
  let kernel_s = median_metric "kernel_s" "s" p2_s in
  let par2_sum = List.fold_left (fun a i -> a +. Stat.median (kernel par2 i)) 0. (List.init k Fun.id) in
  {
    metrics =
      per_kernel
      @ [
          kernel_s;
          (* a pass's kernel_s is exactly the sum of its kernel times;
             across passes the median of sums differs from the sum of
             the per-kernel medians by this much *)
          metric ~n "kernels.par2_sum_residual_s" "s" (kernel_s.value -. par2_sum);
          metric ~n "speedup" "x" (speedup par2);
          metric ~n "speedup_1d" "x" (speedup par1);
          median_metric "kernels.pass_residual_us" "us" residual_us;
          median_metric "runtime.idle_frac" "ratio"
            (per_pass (fun s t -> s_of_ns s.total.idle_ns /. (float_of_int s.domains *. t)));
          median_metric "runtime.steal_success" "ratio"
            (per_pass (fun s _ -> ratio s.total.steals s.total.steal_attempts));
          count "runtime.promotions" (fun s -> s.total.promotions);
          count "runtime.joins" (fun s -> s.total.joins);
          count "runtime.beats" (fun s -> s.total.beats);
          count "runtime.tasks_run" (fun s -> s.total.tasks_run);
        ];
    attempted = (setups * ((3 * k) + 2)) + (3 * n * k);
    failed = !bad;
    notes = notes ~passes:n;
  }
