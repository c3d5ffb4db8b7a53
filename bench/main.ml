(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Figures 6–15, the headline numbers, the tuner
   and the promotion-policy ablation) on the simulated testbed, then
   runs a Bechamel microbenchmark suite over the core primitives that
   those experiments exercise.

   Output shape: one aligned table + CSV block per figure, in paper
   order; see EXPERIMENTS.md for the measured-vs-paper discussion.

   Set REPRO_QUICK=1 to skip the (slow) full figure regeneration and
   run only the Bechamel suite.

   --par-bench switches to the multi-domain pipeline instead: every
   real kernel in Workloads.Real_bench runs serially and then under
   Par.Runtime at each requested domain count, checksums are compared,
   and wall-clock + speedup + scheduler counters + the minor
   collections during the timed call are printed as a table and, with
   --json PATH, written as machine-readable JSON. *)

let run_figures () =
  print_endline
    "=== TPAL reproduction: regenerating all evaluation figures ===";
  print_endline
    "(simulated 15-worker testbed; see DESIGN.md for the substitution \
     rationale)";
  let t0 = Unix.gettimeofday () in
  List.iter Repro.Figures.print_table (Repro.Figures.all ());
  Printf.printf "=== figures regenerated in %.1f s ===\n%!"
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: the primitive operations underlying the
   experiments — abstract-machine evaluation, promotion, simulator
   engine throughput, runtime substrate operations. *)

open Bechamel
open Toolkit

let test_prod_serial =
  Test.make ~name:"eval: prod a=200 serial (abstract machine)"
    (Staged.stage (fun () ->
         Tpal.Programs.run_prod
           ~options:{ Tpal.Eval.default_options with heart = None }
           ~a:200 ~b:3 ()
         |> ignore))

let test_prod_heartbeat =
  Test.make ~name:"eval: prod a=200 heart=20 (promotions+forks)"
    (Staged.stage (fun () ->
         Tpal.Programs.run_prod
           ~options:{ Tpal.Eval.default_options with heart = Some 20 }
           ~a:200 ~b:3 ()
         |> ignore))

let test_fib_heartbeat =
  Test.make ~name:"eval: fib n=12 heart=50 (stack promotions)"
    (Staged.stage (fun () ->
         Tpal.Programs.run_fib
           ~options:{ Tpal.Eval.default_options with heart = Some 50 }
           ~n:12 ()
         |> ignore))

let test_parse =
  let src = Tpal.Printer.program_to_string Tpal.Programs.pow in
  Test.make ~name:"parser: pow round-trip source"
    (Staged.stage (fun () -> Tpal.Parser.parse src |> ignore))

let small_ir = Sim.Par_ir.for_const ~n:100_000 ~cycles:10

let engine_test ~name mode mech =
  Test.make ~name
    (Staged.stage (fun () ->
         let params = { Sim.Params.default with procs = 15 } in
         let cfg = Sim.Runnable.make_cfg mode params in
         let config = Sim.Engine.make_config ~mech cfg in
         Sim.Engine.run config small_ir |> ignore))

let test_engine_serial =
  engine_test ~name:"engine: 1M-cycle loop, serial" Sim.Runnable.Serial
    Sim.Interrupts.Off

let test_engine_cilk =
  engine_test ~name:"engine: 1M-cycle loop, cilk 15 cores" Sim.Runnable.Cilk
    Sim.Interrupts.Off

let test_engine_tpal =
  engine_test ~name:"engine: 1M-cycle loop, tpal 15 cores + ping thread"
    Sim.Runnable.Tpal Sim.Interrupts.Ping_thread

let test_deque =
  Test.make ~name:"substrate: wsdeque push/pop x1000"
    (Staged.stage (fun () ->
         let d = Sim.Wsdeque.create () in
         for i = 0 to 999 do
           Sim.Wsdeque.push_bottom d i
         done;
         for _ = 0 to 999 do
           Sim.Wsdeque.pop_bottom d |> ignore
         done))

let test_eventq =
  Test.make ~name:"substrate: event queue add/pop x1000"
    (Staged.stage (fun () ->
         let q = Sim.Eventq.create ~dummy:0 in
         let rng = Sim.Prng.create ~seed:7 in
         for i = 0 to 999 do
           Sim.Eventq.add q ~time:(Sim.Prng.int rng 100_000) i
         done;
         while not (Sim.Eventq.is_empty q) do
           Sim.Eventq.pop q |> ignore
         done))

let benchmark () =
  let tests =
    [
      test_prod_serial;
      test_prod_heartbeat;
      test_fib_heartbeat;
      test_parse;
      test_engine_serial;
      test_engine_cilk;
      test_engine_tpal;
      test_deque;
      test_eventq;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  print_endline "\n=== Bechamel microbenchmarks (core primitives) ===";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Printf.printf "%-55s %12.1f ns/run\n%!" name t
          | _ -> Printf.printf "%-55s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* The multi-domain pipeline: real kernels on Par.Runtime, recording
   the speedup trajectory as JSON. *)

type par_row = {
  bench : string;
  domains : int;  (* 0 = the serial baseline row *)
  seconds : float;
      (* kernel time: for par rows, measured INSIDE the session (from
         the first instruction of main), so domain spawn/join setup is
         excluded and the row measures the scheduler, not
         Domain.spawn — the committed knapsack 0.036x was entirely
         session setup around a 7 µs kernel *)
  session_seconds : float;
      (* wall-clock around the whole session, setup included (equals
         [seconds] for serial rows) *)
  speedup : float;  (* serial kernel seconds / kernel seconds *)
  checksum : int;
  promotions : int;
  steals : int;
  steal_attempts : int;
  joins : int;
  beats : int;
  polls : int;  (* promotion-ready polls: loop strip ends, fork points *)
  max_deque : int;
  idle_ms : float;  (* total worker idle-backoff sleep *)
  minor_gcs : int;  (* minor collections during the timed kernel call *)
}

(* median-of-k; k small because the kernels are sized to run for tens
   of milliseconds each *)
let median_by (proj : 'a -> float) (xs : 'a list) : 'a =
  let sorted = List.sort (fun a b -> compare (proj a) (proj b)) xs in
  List.nth sorted (List.length sorted / 2)

let minor_gcs () = (Gc.quick_stat ()).minor_collections

(* [f]'s wall-clock seconds, the minor collections during it (counted
   outside the clocked interval; the count is global to all domains)
   and its result *)
let timed (f : unit -> 'a) : float * int * 'a =
  let g0 = minor_gcs () in
  let t0 = Mclock.now_s () in
  let v = f () in
  let t = Mclock.now_s () -. t0 in
  (t, minor_gcs () - g0, v)

let time_median ~(repeat : int) (f : unit -> 'a) : float * int * 'a =
  median_by (fun (t, _, _) -> t) (List.init (max 1 repeat) (fun _ -> timed f))

(* ---- trajectory JSON ----------------------------------------------
   BENCH_par.json and BENCH_serve.json are accumulating trajectories,
   one run object per `--append` invocation, so before/after points of
   a perf change live side by side in the committed file:

     { "suite": "par_bench",
       "trajectory": [ { "label": ..., "host_cores": N, "scale": K,
                         "results": [ <rows> ] }, ... ] } *)

module J = Stats.Json

(* row members: an int, and a measurement rounded to [1 / scale] (a
   time to the microsecond is [num 1e6]): the digits past it are noise *)
let int k n : string * J.t = (k, J.Int n)
let num scale k x : string * J.t = (k, J.Float (Float.round (x *. scale) /. scale))

(* [msg] is Sys_error's "PATH: reason" *)
let cannot_write (msg : string) =
  Printf.eprintf "cannot write %s\n%!" msg;
  exit 2

(* An unwritable output path is refused before the battery runs.  The
   probe appends, so a file keeps its contents; one it creates goes. *)
let check_writable (path : string) : unit =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc -> close_out oc; if not existed then Sys.remove path
  | exception Sys_error msg -> cannot_write msg

let write_file (path : string) (text : string) : unit =
  try Out_channel.with_open_bin path (fun oc -> output_string oc text)
  with Sys_error msg -> cannot_write msg

(* The writer of [path]'s trajectory, which prints the whole document
   with the runs it is given added.  When appending to a file that
   exists, the file is parsed now: one that does not parse, or whose
   "trajectory" is not a list, is refused (exit 2) and left untouched. *)
let open_trajectory ~(suite : string) ~(append : bool) (path : string) :
    J.t list -> unit =
  check_writable path;
  let refuse why =
    Printf.eprintf "%s: %s; not appending to it\n%!" path why;
    exit 2
  in
  let members =
    if not (append && Sys.file_exists path) then
      [ ("suite", J.Str suite); ("trajectory", J.List []) ]
    else
      match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok (J.Obj members)
        when List.exists (function "trajectory", J.List _ -> true | _ -> false) members ->
          members
      | Ok _ -> refuse "no \"trajectory\" list"
      | Error e -> refuse ("not JSON (" ^ e ^ ")")
      | exception Sys_error msg -> refuse msg
  in
  fun runs ->
    let add = function
      | "trajectory", J.List old -> ("trajectory", J.List (old @ runs))
      | m -> m
    in
    write_file path (J.to_string (J.Obj (List.map add members)) ^ "\n");
    Printf.printf "wrote %s (+%d runs)\n%!" path (List.length runs)

let run_json ~(label : string) ~(scale : int) (rows : par_row list) : J.t =
  let row (r : par_row) =
    J.Obj
      [ ("bench", J.Str r.bench); int "domains" r.domains;
        num 1e6 "seconds" r.seconds; num 1e6 "session_seconds" r.session_seconds;
        num 1e3 "speedup" r.speedup; int "checksum" r.checksum;
        int "promotions" r.promotions; int "steals" r.steals;
        int "steal_attempts" r.steal_attempts; int "joins" r.joins;
        int "beats" r.beats; int "polls" r.polls; int "max_deque" r.max_deque;
        num 1e3 "idle_ms" r.idle_ms; int "minor_gcs" r.minor_gcs ]
  in
  J.Obj
    [ ("label", J.Str label);
      int "host_cores" (Domain.recommended_domain_count ());
      int "scale" scale; ("results", J.List (List.map row rows)) ]

let run_par_bench ~(domains : int list) ~(scale : int)
    ~(json : (J.t list -> unit) option) ~(benches : string list option)
    ~(label : string) ~(assert_geomean : float option) ~(trace : string option) : unit =
  let benches =
    match benches with
    | None -> Workloads.Real_bench.all
    | Some names ->
        List.map
          (fun n ->
            match Workloads.Real_bench.find n with
            | Some b -> b
            | None ->
                Printf.eprintf "unknown benchmark %S (have: %s)\n%!" n
                  (String.concat ", " Workloads.Real_bench.names);
                exit 2)
          names
  in
  Printf.printf
    "=== par bench: %d kernels, domains {%s}, scale %d, host cores %d ===\n%!"
    (List.length benches)
    (String.concat ", " (List.map string_of_int domains))
    scale
    (Domain.recommended_domain_count ());
  Printf.printf "%-16s %8s %10s %10s %8s %10s %8s %8s %8s %8s %9s\n%!"
    "bench" "domains" "kernel_s" "session_s" "speedup" "promos" "steals"
    "joins" "beats" "polls" "minor_gcs";
  let rows = ref [] in
  let traces = ref [] in
  let emit r =
    rows := r :: !rows;
    Printf.printf "%-16s %8s %10.4f %10.4f %7.2fx %10d %8d %8d %8d %8d %9d\n%!"
      r.bench
      (if r.domains = 0 then "serial" else string_of_int r.domains)
      r.seconds r.session_seconds r.speedup r.promotions r.steals r.joins
      r.beats r.polls r.minor_gcs
  in
  List.iter
    (fun (b : Workloads.Real_bench.t) ->
      let serial_s, serial_gcs, serial_sum =
        time_median ~repeat:3 (fun () ->
            Workloads.Real_bench.run_serial b ~scale)
      in
      emit
        {
          bench = b.name;
          domains = 0;
          seconds = serial_s;
          session_seconds = serial_s;
          speedup = 1.0;
          checksum = serial_sum;
          promotions = 0;
          steals = 0;
          steal_attempts = 0;
          joins = 0;
          beats = 0;
          polls = 0;
          max_deque = 0;
          idle_ms = 0.;
          minor_gcs = serial_gcs;
        };
      List.iter
        (fun d ->
          let cfg = { Par.Runtime.default_config with domains = d } in
          (* kernel time is clocked INSIDE the session so the row
             measures the scheduler, not Domain.spawn (the serial
             baseline has no session to set up) *)
          let samples =
            List.init 3 (fun _ ->
                let t0 = Mclock.now_s () in
                let kernel, st =
                  Par.Runtime.run ~config:cfg (fun () ->
                      timed (fun () -> b.run (module Par.Runtime.Exec) ~scale))
                in
                let session_s = Mclock.now_s () -. t0 in
                (kernel, session_s, st))
          in
          let (kernel_s, gcs, par_sum), session_s, (st : Par.Runtime.stats) =
            median_by (fun ((k, _, _), _, _) -> k) samples
          in
          if par_sum <> serial_sum then begin
            Printf.eprintf
              "FATAL: %s at %d domains diverged from serial (checksums %d vs \
               %d)\n\
               %!"
              b.name d par_sum serial_sum;
            exit 1
          end;
          emit
            {
              bench = b.name;
              domains = d;
              seconds = kernel_s;
              session_seconds = session_s;
              speedup = serial_s /. kernel_s;
              checksum = par_sum;
              promotions = st.total.promotions;
              steals = st.total.steals;
              steal_attempts = st.total.steal_attempts;
              joins = st.total.joins;
              beats = st.total.beats;
              polls = st.total.polls;
              max_deque = st.total.max_deque;
              idle_ms = float_of_int st.total.idle_ns /. 1e6;
              minor_gcs = gcs;
            })
        domains;
      (* one extra run per kernel with the ring tracers attached, at
         the widest domain count, outside the timed battery so tracing
         cannot perturb the recorded rows *)
      match trace with
      | None -> ()
      | Some _ ->
          let d = List.fold_left max 1 domains in
          let tr = Obs.Trace.create () in
          let cfg =
            {
              Par.Runtime.default_config with
              domains = d;
              tracer = Some tr;
            }
          in
          let sum, _ =
            Par.Runtime.run ~config:cfg (fun () ->
                b.run (module Par.Runtime.Exec) ~scale)
          in
          if sum <> serial_sum then begin
            Printf.eprintf "FATAL: %s traced run diverged from serial\n%!"
              b.name;
            exit 1
          end;
          traces := (b.name, tr) :: !traces)
    benches;
  (match trace with
  | None -> ()
  | Some file ->
      write_file file (Obs.Export.many_to_chrome_string (List.rev !traces));
      Printf.printf "wrote %s (%d processes, %d events, %d dropped)\n%!" file
        (List.length !traces)
        (List.fold_left
           (fun acc (_, tr) -> acc + Obs.Trace.total_written tr)
           0 !traces)
        (List.fold_left
           (fun acc (_, tr) -> acc + Obs.Trace.total_dropped tr)
           0 !traces));
  let rows = List.rev !rows in
  Option.iter (fun write -> write [ run_json ~label ~scale rows ]) json;
  match assert_geomean with
  | None -> ()
  | Some floor ->
      let one_domain =
        List.filter_map
          (fun r -> if r.domains = 1 then Some r.speedup else None)
          rows
      in
      let g = Stats.geomean one_domain in
      Printf.printf
        "1-domain overhead: geomean %.3fx serial over %d kernels (floor \
         %.2fx)\n\
         %!"
        g (List.length one_domain) floor;
      if List.length one_domain = 0 then begin
        Printf.eprintf
          "--assert-geomean given but no 1-domain rows were measured\n%!";
        exit 1
      end;
      if g < floor then begin
        Printf.eprintf
          "FAIL: 1-domain geomean %.3fx is below the %.2fx overhead floor\n%!"
          g floor;
        exit 1
      end

(* ------------------------------------------------------------------ *)
(* The serving pipeline: seeded open-loop load against the multi-tenant
   execution pool, recording the latency/goodput trajectory as JSON
   (BENCH_serve.json; same accumulating shape as BENCH_par.json, and
   the loopback net rows land in the same file). *)

let chaos_json : int option -> J.t = function None -> J.Null | Some n -> J.Int n

let serve_run_json ~(label : string) ~(chaos_seed : int option)
    ~(retries : int) (r : Serve.Load.report) : J.t =
  let spec = r.spec in
  let tenant (t, s) = (t, Obs.Hist.json_of_summary s) in
  J.Obj
    [ ("label", J.Str label);
      int "host_cores" (Domain.recommended_domain_count ());
      int "requests" spec.requests; int "tenants" spec.tenants;
      int "rate_rps" (Float.to_int (Float.round spec.rate_rps));
      int "seed" spec.seed; num 1e3 "slo_ms" (1e3 *. spec.slo_s);
      ("chaos_seed", chaos_json chaos_seed); int "retry_budget" retries;
      ( "results",
        J.List
          [ J.Obj
              [ int "offered" r.offered; int "admitted" r.admitted;
                int "rejected_full" r.rejected_full;
                int "rejected_shed" r.rejected_shed;
                int "completed" r.completed; int "failed" r.failed;
                int "cancelled" r.cancelled; int "retried" r.retried;
                int "restarts" r.restarts; int "lost" r.lost;
                int "duplicated" r.duplicated; int "mismatched" r.mismatched;
                int "met" r.met; int "missed" r.missed;
                num 1e4 "p50_ms" r.p50_ms; num 1e4 "p95_ms" r.p95_ms;
                num 1e4 "p99_ms" r.p99_ms; num 1e4 "mean_ms" r.mean_ms;
                num 1e1 "goodput_rps" r.goodput_rps;
                num 1e1 "throughput_rps" r.throughput_rps;
                num 1e4 "reject_rate" r.reject_rate;
                num 1e3 "elapsed_s" r.elapsed_s;
                ("pool_latency", Obs.Hist.json_of_summary r.pool_latency);
                ( "latency_per_tenant",
                  J.Obj (List.map tenant r.latency_per_tenant) ) ] ] ) ]

let run_serve_bench ~(requests : int) ~(tenants : int) ~(rate : float)
    ~(seed : int) ~(domains : int) ~(cap : int) ~(slo_ms : float)
    ~(chaos_seed : int option) ~(retries : int) ~(json : (J.t list -> unit) option)
    ~(label : string) : unit =
  Printf.printf
    "=== serve bench: %d requests, %d tenants, %.0f req/s offered, %d \
     domain(s), cap %d, SLO %.1f ms, seed %d%s, retries %d ===\n\
     %!"
    requests tenants rate domains cap slo_ms seed
    (match chaos_seed with
    | None -> ""
    | Some n -> Printf.sprintf ", chaos seed %d" n)
    retries;
  let chaos =
    (* timing-only faults: the bench's audit gate must stay meaningful
       (an injected raise without a retry budget is a guaranteed
       failure, not a robustness measurement) *)
    Option.map
      (fun cs -> Par.Chaos.random_plan ~raises:(retries > 0) ~seed:cs ~domains ())
      chaos_seed
  in
  let config =
    {
      Serve.Pool.default_config with
      runtime =
        {
          Par.Runtime.default_config with
          domains;
          heart_us = 30.;
          chaos;
        };
      sched = { Serve.Sched.default_config with cap };
      default_slo_s = slo_ms /. 1e3;
      retries;
    }
  in
  let spec =
    {
      Serve.Load.default_spec with
      requests;
      tenants;
      rate_rps = rate;
      seed;
      slo_s = slo_ms /. 1e3;
    }
  in
  let pool = Serve.Pool.create ~config () in
  let report = Serve.Load.run pool spec in
  ignore (Serve.Pool.close pool);
  Format.printf "%a@." Serve.Load.pp_report report;
  Option.iter
    (fun write -> write [ serve_run_json ~label ~chaos_seed ~retries report ])
    json;
  (* the exactly-once gate: a lost, duplicated or corrupted request is
     a correctness failure regardless of the latency numbers, and so is
     a run that completed nothing *)
  if not (Serve.Load.audit_ok report) then begin
    Printf.eprintf
      "FAIL: audit (lost %d, duplicated %d, mismatched %d, completed %d)\n%!"
      report.lost report.duplicated report.mismatched report.completed;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The network serving fabric: the same audit-gated load, but over a
   loopback socket through Net.Server — shards and router policies
   included.  One leg per placement policy, all in one
   process, so a single run yields the FIFO-vs-size-aware head-of-line
   comparison the trajectory tracks. *)

let net_run_json ~(label : string) ~(policy : string) ~(shards : int)
    ~(chaos_seed : int option) ~(retries : int) (r : Net.Netload.report) : J.t =
  let spec = r.spec in
  J.Obj
    [ ("label", J.Str label);
      int "host_cores" (Domain.recommended_domain_count ());
      int "requests" spec.requests; int "tenants" spec.tenants;
      int "seed" spec.seed; num 1e3 "slo_ms" (1e3 *. spec.slo_s);
      ("chaos_seed", chaos_json chaos_seed); int "retry_budget" retries;
      ( "net",
        J.Obj
          [ ("policy", J.Str policy); int "shards" shards;
            int "conns" spec.conns; int "window" spec.window ] );
      ( "results",
        J.List
          [ J.Obj
              [ int "submitted" r.submitted; int "completed" r.completed;
                int "met" r.met; int "missed" r.missed;
                int "rejected" r.rejected; int "cancelled" r.cancelled;
                int "failed" r.failed; int "closed" r.closed;
                int "lost" r.lost; int "duplicated" r.duplicated;
                int "mismatched" r.mismatched;
                num 1e1 "throughput_rps" r.throughput_rps;
                num 1e4 "p50_ms" r.all.p50_ms; num 1e4 "p95_ms" r.all.p95_ms;
                num 1e4 "p99_ms" r.all.p99_ms;
                num 1e4 "small_p95_ms" r.small.p95_ms;
                num 1e4 "small_p99_ms" r.small.p99_ms;
                num 1e4 "large_p95_ms" r.large.p95_ms;
                num 1e3 "elapsed_s" r.elapsed_s ] ] ) ]

let run_net_bench ~(requests : int) ~(tenants : int) ~(seed : int)
    ~(domains : int) ~(cap : int) ~(slo_ms : float)
    ~(chaos_seed : int option) ~(retries : int) ~(shards : int)
    ~(conns : int) ~(window : int) ~(small_max : int)
    ~(json : (J.t list -> unit) option) ~(label : string) : unit =
  let legs =
    (* the FIFO baseline is one pool with no routing decision at all;
       the policy legs split the same domain budget across [shards] *)
    [
      ("fifo", 1, Net.Router.Jsq);
      ("hash", shards, Net.Router.Tenant_hash);
      ("jsq", shards, Net.Router.Jsq);
      ("size", shards, Net.Router.Size_aware { small_max });
    ]
  in
  let chaos () =
    Option.map
      (fun cs ->
        Par.Chaos.random_plan ~raises:(retries > 0) ~seed:cs ~domains ())
      chaos_seed
  in
  let spec =
    {
      Net.Netload.default_spec with
      requests;
      conns;
      tenants;
      seed;
      slo_s = slo_ms /. 1e3;
      tight_frac = 0.;
      (* a heavy large class so the single-pool baseline actually pays a
         head-of-line price that the size-aware split can remove *)
      sizes = [ (256, 0.85); (8192, 0.10); (262144, 0.05) ];
      small_max;
      window;
    }
  in
  let results =
    List.map
      (fun (name, shards, policy) ->
        Printf.printf
          "=== net bench [%s]: %d requests, %d conns, window %d, %d \
           shard(s) x %d domain(s), cap %d, SLO %.1f ms%s ===\n\
           %!"
          name requests conns window shards domains cap slo_ms
          (match chaos_seed with
          | None -> ""
          | Some n -> Printf.sprintf ", chaos seed %d" n);
        let pool_cfg =
          {
            Serve.Pool.default_config with
            runtime =
              {
                Par.Runtime.default_config with
                domains;
                heart_us = 30.;
                chaos = chaos ();
              };
            sched = { Serve.Sched.default_config with cap };
            default_slo_s = slo_ms /. 1e3;
            retries;
          }
        in
        let srv =
          Net.Server.create
            ~config:
              {
                Net.Server.default_config with
                shard =
                  {
                    Net.Shard.default_config with
                    shards;
                    pool = pool_cfg;
                    policy;
                  };
              }
            (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
            ()
        in
        let r = Net.Netload.run (Net.Server.bound_addr srv) spec in
        ignore (Net.Server.stop srv : Net.Server.stats);
        Format.printf "%a@." Net.Netload.pp_report r;
        (name, shards, r))
      legs
  in
  let row (name, shards, r) =
    net_run_json ~label:(Printf.sprintf "%s-net-%s" label name) ~policy:name
      ~shards ~chaos_seed ~retries r
  in
  Option.iter (fun write -> write (List.map row results)) json;
  (* the head-of-line contrast the size-aware policy exists for, when
     both small classes have samples *)
  (match
     ( List.find_opt (fun (n, _, _) -> n = "fifo") results,
       List.find_opt (fun (n, _, _) -> n = "size") results )
   with
  | Some (_, _, fifo), Some (_, _, size)
    when fifo.small.count > 0 && size.small.count > 0 ->
      Printf.printf
        "small-request p95: fifo %.2f ms vs size-aware %.2f ms (%s)\n%!"
        fifo.small.p95_ms size.small.p95_ms
        (if size.small.p95_ms < fifo.small.p95_ms then
           "size-aware isolates the small class"
         else "no isolation win on this host")
  | _ -> ());
  (* the audit gate covers every leg *)
  List.iter
    (fun (name, _, (r : Net.Netload.report)) ->
      if not (Net.Netload.audit_ok r) then begin
        Printf.eprintf
          "FAIL: net audit [%s] (lost %d, duplicated %d, mismatched %d, \
           completed %d)\n\
           %!"
          name r.lost r.duplicated r.mismatched r.completed;
        exit 1
      end)
    results

let parse_int_list (what : string) (s : string) : int list =
  String.split_on_char ',' s
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match int_of_string_opt (String.trim s) with
         | Some n when n > 0 -> n
         | _ ->
             Printf.eprintf "bad %s %S (want comma-separated ints)\n%!" what s;
             exit 2)

let usage () =
  print_endline
    "usage: bench [--par-bench] [--domains 1,2,4] [--scale N] [--json PATH]\n\
    \             [--benches a,b,c] [--append] [--label NAME]\n\
    \             [--assert-geomean F] [--trace FILE]\n\
     without --par-bench: regenerate the simulated figures (unless\n\
     REPRO_QUICK=1) and run the Bechamel microbenchmark suite.\n\
     With --par-bench: run the real kernels on the multi-domain runtime\n\
     and, with --json PATH, write the trajectory (e.g. BENCH_par.json).\n\
     With --serve-bench: drive a seeded open-loop load (Poisson arrivals,\n\
     Zipf tenants, mixed kernel sizes) through the multi-tenant execution\n\
     server, audit exactly-once execution, and write the latency/goodput\n\
     trajectory (--json PATH; e.g. BENCH_serve.json).  Extra flags:\n\
    \  --requests N --tenants N --rate RPS --seed N --cap N (>= 1) --slo-ms F\n\
    \  --chaos-seed N --retries N\n\
    \  (--domains takes its first element for the pool's session)\n\
     With --serve-bench --net: the same audit-gated load over a loopback\n\
     socket through Net.Server — one leg per router policy (fifo 1-shard\n\
     baseline, tenant-hash, jsq, size-aware), each a labelled trajectory\n\
     row with req/s and client-side p50/p95/p99.  Extra flags:\n\
    \  --shards N --conns N --window N (per-conn in-flight bound; each >= 1)\n\
    \  --small-max N (the small class: size-aware routing, latency split)\n\
    \  --append            add this run to the file's trajectory instead\n\
    \                      of overwriting (exit 2, file untouched, when\n\
    \                      it does not parse or has no trajectory list)\n\
    \  --label NAME        label for this trajectory entry\n\
    \  --assert-geomean F  exit 1 unless the geomean 1-domain speedup\n\
    \                      over the measured kernels is >= F (the\n\
    \                      single-domain overhead floor in CI)\n\
    \  --trace FILE        with --par-bench: re-run each kernel once at\n\
    \                      the widest domain count with the per-domain\n\
    \                      ring tracers attached (outside the timed\n\
    \                      battery) and write one Perfetto-loadable\n\
    \                      Chrome trace, one process per kernel"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let par_bench = ref false in
  let serve_bench = ref false in
  let domains = ref [ 1; 2; 4 ] in
  let scale = ref 1 in
  let json = ref None in
  let benches = ref None in
  let append = ref false in
  let label = ref None in
  let assert_geomean = ref None in
  let trace = ref None in
  let requests = ref 10_000 in
  let tenants = ref 8 in
  let rate = ref 20_000. in
  let seed = ref 0x5E12E in
  let cap = ref 512 in
  let slo_ms = ref 50. in
  let chaos_seed = ref None in
  let retries = ref 0 in
  let net = ref false in
  let shards = ref 2 in
  let conns = ref 2 in
  let window = ref 64 in
  let small_max = ref 4 in
  let int_flag ?(min = 0) what v r rest parse =
    (match int_of_string_opt v with
    | Some n when n >= min -> r := n
    | _ ->
        Printf.eprintf "bad %s %S\n%!" what v;
        exit 2);
    parse rest
  in
  let rec parse = function
    | [] -> ()
    | "--par-bench" :: rest ->
        par_bench := true;
        parse rest
    | "--serve-bench" :: rest ->
        serve_bench := true;
        parse rest
    | "--net" :: rest ->
        net := true;
        parse rest
    | "--shards" :: v :: rest -> int_flag ~min:1 "--shards" v shards rest parse
    | "--conns" :: v :: rest -> int_flag ~min:1 "--conns" v conns rest parse
    | "--window" :: v :: rest -> int_flag ~min:1 "--window" v window rest parse
    | "--small-max" :: v :: rest -> int_flag "--small-max" v small_max rest parse
    | "--requests" :: v :: rest -> int_flag "--requests" v requests rest parse
    | "--tenants" :: v :: rest -> int_flag "--tenants" v tenants rest parse
    | "--seed" :: v :: rest -> int_flag "--seed" v seed rest parse
    | "--cap" :: v :: rest -> int_flag ~min:1 "--cap" v cap rest parse
    | "--retries" :: v :: rest -> int_flag "--retries" v retries rest parse
    | "--chaos-seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> chaos_seed := Some n
        | None ->
            Printf.eprintf "bad --chaos-seed %S\n%!" v;
            exit 2);
        parse rest
    | "--rate" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> rate := f
        | _ ->
            Printf.eprintf "bad --rate %S\n%!" v;
            exit 2);
        parse rest
    | "--slo-ms" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0. -> slo_ms := f
        | _ ->
            Printf.eprintf "bad --slo-ms %S\n%!" v;
            exit 2);
        parse rest
    | "--domains" :: v :: rest ->
        domains := parse_int_list "--domains" v;
        parse rest
    | "--scale" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> scale := n
        | _ ->
            Printf.eprintf "bad --scale %S\n%!" v;
            exit 2);
        parse rest
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse rest
    | "--benches" :: v :: rest ->
        benches :=
          Some (String.split_on_char ',' v |> List.filter (fun s -> s <> ""));
        parse rest
    | "--append" :: rest ->
        append := true;
        parse rest
    | "--label" :: v :: rest ->
        label := Some v;
        parse rest
    | "--assert-geomean" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0. -> assert_geomean := Some f
        | _ ->
            Printf.eprintf "bad --assert-geomean %S\n%!" v;
            exit 2);
        parse rest
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n%!" arg;
        usage ();
        exit 2
  in
  parse args;
  (* output paths are checked, and a file to append to is parsed,
     before anything runs *)
  Option.iter check_writable !trace;
  let json =
    Option.map
      (open_trajectory
         ~suite:(if !serve_bench then "serve_bench" else "par_bench")
         ~append:!append)
      !json
  in
  let label =
    Option.value !label ~default:(Printf.sprintf "run-%.0f" (Unix.time ()))
  in
  if !serve_bench then begin
    let domains = match !domains with d :: _ -> d | [] -> 1 in
    if !net then
      run_net_bench ~requests:!requests ~tenants:!tenants ~seed:!seed ~domains
        ~cap:!cap ~slo_ms:!slo_ms ~chaos_seed:!chaos_seed ~retries:!retries
        ~shards:!shards ~conns:!conns ~window:!window ~small_max:!small_max
        ~json ~label
    else
      run_serve_bench ~requests:!requests ~tenants:!tenants ~rate:!rate
        ~seed:!seed ~domains ~cap:!cap ~slo_ms:!slo_ms ~chaos_seed:!chaos_seed
        ~retries:!retries ~json ~label
  end
  else if !par_bench then
    run_par_bench ~domains:!domains ~scale:!scale ~json ~benches:!benches ~label
      ~assert_geomean:!assert_geomean ~trace:!trace
  else begin
    if Sys.getenv_opt "REPRO_QUICK" = None then run_figures ();
    benchmark ()
  end
