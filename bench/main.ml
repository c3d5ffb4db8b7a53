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
   BENCH_par.json is an accumulating trajectory: one run object per
   `--par-bench` invocation (with `--append`), so before/after points
   of a perf change live side by side in the committed file:

     { "suite": "par_bench",
       "trajectory": [ { "label": ..., "host_cores": N, "scale": K,
                         "results": [ <rows> ] }, ... ] }

   Appending is textual (no JSON dependency): the previous runs are
   extracted as the raw inner text of the "trajectory" array. *)

let row_json (r : par_row) =
  Printf.sprintf
    "      {\"bench\": \"%s\", \"domains\": %d, \"seconds\": %.6f, \
     \"session_seconds\": %.6f, \"speedup\": %.3f, \"checksum\": %d, \
     \"promotions\": %d, \"steals\": %d, \"steal_attempts\": %d, \"joins\": \
     %d, \"beats\": %d, \"polls\": %d, \"max_deque\": %d, \"idle_ms\": \
     %.3f, \"minor_gcs\": %d}"
    (Stats.Chrome_trace.escape r.bench)
    r.domains r.seconds r.session_seconds r.speedup r.checksum r.promotions
    r.steals r.steal_attempts r.joins r.beats r.polls r.max_deque r.idle_ms
    r.minor_gcs

let run_json ~(label : string) ~(scale : int) (rows : par_row list) : string =
  Printf.sprintf
    "    {\n\
    \      \"label\": \"%s\",\n\
    \      \"host_cores\": %d,\n\
    \      \"scale\": %d,\n\
    \      \"results\": [\n\
     %s\n\
    \      ]\n\
    \    }"
    (Stats.Chrome_trace.escape label)
    (Domain.recommended_domain_count ())
    scale
    (String.concat ",\n" (List.map row_json rows))

(* The balanced [...] following the "key": string in [content], as
   raw inner text.  Brackets and quotes inside string literals (and
   [\\]-escapes within them) are skipped, so any label round-trips. *)
let extract_array (content : string) (key : string) : string option =
  let n = String.length content in
  (* the index just past the literal whose body starts at [i] *)
  let rec after_string i =
    if i >= n then n
    else
      match content.[i] with
      | '\\' -> after_string (i + 2)
      | '"' -> i + 1
      | _ -> after_string (i + 1)
  in
  let rec skip_ws i =
    if i < n && String.contains " \t\r\n" content.[i] then skip_ws (i + 1)
    else i
  in
  let needle = Printf.sprintf "\"%s\"" key in
  let rec find i =
    if i >= n then None
    else if content.[i] <> '"' then find (i + 1)
    else
      let j = after_string (i + 1) in
      let colon = skip_ws j in
      if String.sub content i (j - i) = needle && colon < n
         && content.[colon] = ':'
      then Some (skip_ws (colon + 1))
      else find j
  in
  let rec close i depth =
    if i >= n then None
    else
      match content.[i] with
      | '"' -> close (after_string (i + 1)) depth
      | '[' -> close (i + 1) (depth + 1)
      | ']' -> if depth = 1 then Some i else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
  in
  match find 0 with
  | Some open_b when open_b < n && content.[open_b] = '[' ->
      close open_b 0
      |> Option.map (fun close_b ->
             String.sub content (open_b + 1) (close_b - open_b - 1))
  | _ -> None

(* The runs already in [path]'s trajectory; [None] when the file does
   not exist.  A file without a readable "trajectory" array is refused
   (exit 2) rather than overwritten. *)
let prior_runs (path : string) : string option =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | content -> (
      match extract_array content "trajectory" with
      | Some inner when String.trim inner <> "" -> Some (String.trim inner)
      | Some _ -> None
      | None ->
          Printf.eprintf "%s has no readable \"trajectory\" array; not \
                          appending to it\n%!" path;
          exit 2)

let write_par_json ~(path : string) ~(label : string) ~(scale : int)
    ~(append : bool) (rows : par_row list) : unit =
  let prior = if append then prior_runs path else None in
  let entries =
    match prior with
    | None -> run_json ~label ~scale rows
    | Some old -> old ^ ",\n" ^ run_json ~label ~scale rows
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"par_bench\",\n\
    \  \"trajectory\": [\n\
    \    %s\n\
    \  ]\n\
     }\n"
    (String.trim entries);
  close_out oc;
  Printf.printf "wrote %s (%d rows%s)\n%!" path (List.length rows)
    (if prior <> None then ", appended to prior trajectory" else "")

let run_par_bench ~(domains : int list) ~(scale : int) ~(json : string option)
    ~(benches : string list option) ~(append : bool) ~(label : string)
    ~(assert_geomean : float option) ~(trace : string option) : unit =
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
      let oc = open_out file in
      output_string oc (Obs.Export.many_to_chrome_string (List.rev !traces));
      close_out oc;
      Printf.printf "wrote %s (%d processes, %d events, %d dropped)\n%!" file
        (List.length !traces)
        (List.fold_left
           (fun acc (_, tr) -> acc + Obs.Trace.total_written tr)
           0 !traces)
        (List.fold_left
           (fun acc (_, tr) -> acc + Obs.Trace.total_dropped tr)
           0 !traces));
  let rows = List.rev !rows in
  (match json with
  | None -> ()
  | Some path ->
      write_par_json ~path ~label ~scale ~append rows);
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
   (BENCH_serve.json; same accumulating shape as BENCH_par.json, so
   [prior_runs] reuses the textual appender). *)

let serve_run_json ~(label : string) ~(chaos_seed : int option)
    ~(retries : int) (r : Serve.Load.report) : string =
  let spec = r.spec in
  let latency_per_tenant =
    String.concat ", "
      (List.map
         (fun (tenant, s) ->
           Printf.sprintf "\"%s\": %s" (Stats.Chrome_trace.escape tenant)
             (Obs.Hist.summary_json s))
         r.latency_per_tenant)
  in
  Printf.sprintf
    "    {\n\
    \      \"label\": \"%s\",\n\
    \      \"host_cores\": %d,\n\
    \      \"requests\": %d,\n\
    \      \"tenants\": %d,\n\
    \      \"rate_rps\": %.0f,\n\
    \      \"seed\": %d,\n\
    \      \"slo_ms\": %.3f,\n\
    \      \"chaos_seed\": %s,\n\
    \      \"retry_budget\": %d,\n\
    \      \"results\": [\n\
    \        {\"offered\": %d, \"admitted\": %d, \"rejected_full\": %d, \
     \"rejected_shed\": %d, \"completed\": %d, \"failed\": %d, \
     \"cancelled\": %d, \"retried\": %d, \"restarts\": %d, \"lost\": %d, \
     \"duplicated\": %d, \"mismatched\": %d, \"met\": %d, \"missed\": %d, \
     \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms\": \
     %.4f, \"goodput_rps\": %.1f, \"throughput_rps\": %.1f, \
     \"reject_rate\": %.4f, \"elapsed_s\": \
     %.3f, \"pool_latency\": %s, \"latency_per_tenant\": {%s}}\n\
    \      ]\n\
    \    }"
    (Stats.Chrome_trace.escape label)
    (Domain.recommended_domain_count ())
    spec.requests spec.tenants spec.rate_rps spec.seed (1e3 *. spec.slo_s)
    (match chaos_seed with None -> "null" | Some n -> string_of_int n)
    retries r.offered r.admitted r.rejected_full r.rejected_shed r.completed
    r.failed r.cancelled r.retried r.restarts r.lost r.duplicated
    r.mismatched r.met r.missed r.p50_ms r.p95_ms r.p99_ms r.mean_ms
    r.goodput_rps r.throughput_rps r.reject_rate r.elapsed_s
    (Obs.Hist.summary_json r.pool_latency)
    latency_per_tenant

(* both the in-process serve rows and the loopback net rows land in the
   same accumulating trajectory file *)
let write_serve_entry ~(path : string) ~(append : bool) (entry : string) : unit
    =
  let prior = if append then prior_runs path else None in
  let entries =
    match prior with None -> entry | Some old -> old ^ ",\n" ^ entry
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"suite\": \"serve_bench\",\n\
    \  \"trajectory\": [\n\
    \    %s\n\
    \  ]\n\
     }\n"
    (String.trim entries);
  close_out oc;
  Printf.printf "wrote %s%s\n%!" path
    (if prior <> None then " (appended to prior trajectory)" else "")

let write_serve_json ~(path : string) ~(label : string) ~(append : bool)
    ~(chaos_seed : int option) ~(retries : int) (r : Serve.Load.report) : unit
    =
  write_serve_entry ~path ~append (serve_run_json ~label ~chaos_seed ~retries r)

let run_serve_bench ~(requests : int) ~(tenants : int) ~(rate : float)
    ~(seed : int) ~(domains : int) ~(cap : int) ~(slo_ms : float)
    ~(chaos_seed : int option) ~(retries : int) ~(json : string option)
    ~(append : bool) ~(label : string) : unit =
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
  (match json with
  | None -> ()
  | Some path -> write_serve_json ~path ~label ~append ~chaos_seed ~retries report);
  (* the exactly-once gate: a lost, duplicated or corrupted request is
     a correctness failure regardless of the latency numbers *)
  if report.lost > 0 || report.duplicated > 0 || report.mismatched > 0 then begin
    Printf.eprintf
      "FAIL: audit (lost %d, duplicated %d, mismatched %d)\n%!" report.lost
      report.duplicated report.mismatched;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The network serving fabric: the same audit-gated load, but over a
   loopback socket through Net.Server — shards, router policies and
   micro-batching included.  One leg per placement policy, all in one
   process, so a single run yields the FIFO-vs-size-aware head-of-line
   comparison the trajectory tracks. *)

let net_run_json ~(label : string) ~(policy : string) ~(shards : int)
    ~(batch_max : int) ~(batch_us : float) ~(chaos_seed : int option)
    ~(retries : int) (r : Net.Netload.report) : string =
  let spec = r.spec in
  Printf.sprintf
    "    {\n\
    \      \"label\": \"%s\",\n\
    \      \"host_cores\": %d,\n\
    \      \"requests\": %d,\n\
    \      \"tenants\": %d,\n\
    \      \"seed\": %d,\n\
    \      \"slo_ms\": %.3f,\n\
    \      \"chaos_seed\": %s,\n\
    \      \"retry_budget\": %d,\n\
    \      \"net\": {\"policy\": \"%s\", \"shards\": %d, \"conns\": %d, \
     \"window\": %d, \"batch_max\": %d, \"batch_us\": %.0f},\n\
    \      \"results\": [\n\
    \        {\"submitted\": %d, \"completed\": %d, \"met\": %d, \"missed\": \
     %d, \"rejected\": %d, \"cancelled\": %d, \"failed\": %d, \"closed\": \
     %d, \"lost\": %d, \"duplicated\": %d, \"mismatched\": %d, \
     \"throughput_rps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, \
     \"p99_ms\": %.4f, \"small_p95_ms\": %.4f, \"small_p99_ms\": %.4f, \
     \"large_p95_ms\": %.4f, \"elapsed_s\": %.3f}\n\
    \      ]\n\
    \    }"
    (Stats.Chrome_trace.escape label)
    (Domain.recommended_domain_count ())
    spec.requests spec.tenants spec.seed (1e3 *. spec.slo_s)
    (match chaos_seed with None -> "null" | Some n -> string_of_int n)
    retries
    (Stats.Chrome_trace.escape policy)
    shards spec.conns spec.window batch_max batch_us r.submitted r.completed
    r.met r.missed r.rejected r.cancelled r.failed r.closed r.lost r.duplicated r.mismatched r.throughput_rps
    r.all.p50_ms r.all.p95_ms r.all.p99_ms r.small.p95_ms r.small.p99_ms
    r.large.p95_ms r.elapsed_s

let run_net_bench ~(requests : int) ~(tenants : int) ~(seed : int)
    ~(domains : int) ~(cap : int) ~(slo_ms : float)
    ~(chaos_seed : int option) ~(retries : int) ~(shards : int)
    ~(conns : int) ~(window : int) ~(batch_max : int) ~(batch_us : float)
    ~(small_max : int) ~(json : string option) ~(append : bool)
    ~(label : string) : unit =
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
           shard(s) x %d domain(s), batch <=%d @ %.0f us, cap %d, SLO %.1f \
           ms%s ===\n\
           %!"
          name requests conns window shards domains batch_max batch_us cap
          slo_ms
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
                    batch_max;
                    batch_delay_us = batch_us;
                    batch_size_max = small_max;
                  };
              }
            (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
            ()
        in
        let r = Net.Netload.run (Net.Server.bound_addr srv) spec in
        let st = Net.Server.stop srv in
        Format.printf "%a@." Net.Netload.pp_report r;
        Printf.printf "batched members: %d of %d routed\n%!"
          st.shard.batched_members st.shard.submitted;
        (name, shards, r))
      legs
  in
  (match json with
  | None -> ()
  | Some path ->
      List.iteri
        (fun i (name, shards, r) ->
          write_serve_entry ~path
            ~append:(append || i > 0)
            (net_run_json
               ~label:(Printf.sprintf "%s-net-%s" label name)
               ~policy:name ~shards ~batch_max ~batch_us ~chaos_seed ~retries
               r))
        results);
  (* the head-of-line contrast the size-aware policy exists for *)
  (match
     ( List.find_opt (fun (n, _, _) -> n = "fifo") results,
       List.find_opt (fun (n, _, _) -> n = "size") results )
   with
  | Some (_, _, fifo), Some (_, _, size) ->
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
    \  --batch-max N --batch-us F (micro-batching) --small-max N\n\
    \  --append            add this run to the file's trajectory instead\n\
    \                      of overwriting (exit 2, file untouched, when\n\
    \                      it has no readable trajectory)\n\
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
  let batch_max = ref 8 in
  let batch_us = ref 200. in
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
    | "--batch-max" :: v :: rest -> int_flag "--batch-max" v batch_max rest parse
    | "--small-max" :: v :: rest -> int_flag "--small-max" v small_max rest parse
    | "--batch-us" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> batch_us := f
        | _ ->
            Printf.eprintf "bad --batch-us %S\n%!" v;
            exit 2);
        parse rest
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
  if !serve_bench then begin
    let label =
      match !label with
      | Some l -> l
      | None -> Printf.sprintf "run-%.0f" (Unix.time ())
    in
    let domains = match !domains with d :: _ -> d | [] -> 1 in
    if !net then
      run_net_bench ~requests:!requests ~tenants:!tenants ~seed:!seed ~domains
        ~cap:!cap ~slo_ms:!slo_ms ~chaos_seed:!chaos_seed ~retries:!retries
        ~shards:!shards ~conns:!conns ~window:!window ~batch_max:!batch_max
        ~batch_us:!batch_us ~small_max:!small_max ~json:!json ~append:!append
        ~label
    else
      run_serve_bench ~requests:!requests ~tenants:!tenants ~rate:!rate
        ~seed:!seed ~domains ~cap:!cap ~slo_ms:!slo_ms ~chaos_seed:!chaos_seed
        ~retries:!retries ~json:!json ~append:!append ~label
  end
  else if !par_bench then begin
    let label =
      match !label with
      | Some l -> l
      | None -> Printf.sprintf "run-%.0f" (Unix.time ())
    in
    run_par_bench ~domains:!domains ~scale:!scale ~json:!json
      ~benches:!benches ~append:!append ~label
      ~assert_geomean:!assert_geomean ~trace:!trace
  end
  else begin
    if Sys.getenv_opt "REPRO_QUICK" = None then run_figures ();
    benchmark ()
  end
