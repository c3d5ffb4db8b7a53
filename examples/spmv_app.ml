(* spmv: sparse matrix × dense vector on a power-law matrix — the
   paper's showcase of irregular nested parallelism.

   Three views of the same computation:
   1. the real kernel under the heartbeat runtime at one domain
      (actual promotions on a real power-law CSR matrix);
   2. correctness against the serial kernel;
   3. the simulated 15-core testbed: Cilk's eager decomposition vs
      TPAL's heartbeat, reproducing the Figure 7 shape.

   Exits 1 when the result differs from serial, or when the run's trace
   dropped an event or disagrees with the runtime's counters.

   Run with:  dune exec examples/spmv_app.exe *)

let () =
  let rng = Sim.Prng.create ~seed:2024 in
  let n = 30_000 in
  let m =
    Workloads.Csr.powerlaw (module Workloads.Exec.Serial) ~rng ~nrows:n ~ncols:n
      ~max_row_len:(n / 2)
  in
  Printf.printf "power-law matrix: %d rows, %d non-zeros, heaviest row %d\n"
    n
    (Workloads.Csr.nnz m)
    (let best = ref 0 in
     for r = 0 to n - 1 do
       best := max !best (Workloads.Csr.row_length m r)
     done;
     !best);

  let x = Array.init n (fun i -> 1. +. (float_of_int (i mod 13) /. 7.)) in
  let y_serial = Workloads.Csr.spmv_serial m x in

  (* Real heartbeat runtime: rows are a promotable parallel loop, long
     rows a promotable nested reduction.  The worker's trace ring
     records the scheduler's events — the same vocabulary Sim_trace
     records for the simulator. *)
  let y = Array.make n 0. in
  let tr = Obs.Trace.create () in
  let (), { total = st; _ } =
    Par.Runtime.run
      ~config:
        { Par.Runtime.default_config with
          domains = 1;
          heart_us = 100.;
          tracer = Some tr }
      (fun () ->
        Workloads.Csr.spmv ~row_grain:1024 (module Par.Runtime.Exec) m x y)
  in
  let ok =
    Array.for_all2
      (fun a b -> Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b))
      y y_serial
  in
  Printf.printf
    "heartbeat runtime: result matches serial = %b | beats=%d promotions=%d \
     (loops=%d, branches=%d) joins=%d\n"
    ok st.beats st.promotions st.loop_promotions st.branch_promotions st.joins;
  let events = List.concat_map snd (Obs.Trace.events tr) in
  let count p = List.length (List.filter (fun (_, e) -> p e) events) in
  let dropped = Obs.Trace.total_dropped tr in
  let trace_beats = count (( = ) Obs.Event.Beat) = st.beats
  and trace_promotions =
    count (( = ) (Obs.Event.Promote { kind = `Loop })) = st.loop_promotions
    && count (( = ) (Obs.Event.Promote { kind = `Branch }))
       = st.branch_promotions
  and trace_joins =
    count (( = ) Obs.Event.Join_suspend) = st.joins
    && count (( = ) Obs.Event.Join_resume) = st.resumes
  and trace_tasks =
    count (function Task_start _ -> true | _ -> false) = st.tasks_run
  in
  Printf.printf
    "trace agrees: beats=%b promotions=%b joins=%b tasks=%b | tasks run=%d, \
     %d events traced, %d dropped\n"
    trace_beats trace_promotions trace_joins trace_tasks st.tasks_run
    (Obs.Trace.total_written tr) dropped;
  if
    not
      (ok && dropped = 0 && trace_beats && trace_promotions && trace_joins
     && trace_tasks)
  then exit 1;

  (* Simulated testbed, Figure 7 shape. *)
  let w = Option.get (Workloads.Workload.find "spmv-powerlaw") in
  Printf.printf "\nsimulated 15-core testbed (%s):\n" w.descr;
  Printf.printf "  Cilk/Linux     speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Cilk_sys w);
  Printf.printf "  TPAL/Linux     speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Tpal_linux w);
  Printf.printf "  TPAL/Nautilus  speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Tpal_nautilus w)
