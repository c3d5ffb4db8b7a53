(* spmv: sparse matrix × dense vector on a power-law matrix — the
   paper's showcase of irregular nested parallelism.

   Three views of the same computation:
   1. the real kernel under the heartbeat runtime at one domain
      (actual promotions on a real power-law CSR matrix);
   2. correctness against the serial kernel;
   3. the simulated 15-core testbed: Cilk's eager decomposition vs
      TPAL's heartbeat, reproducing the Figure 7 shape.

   Exits 1 when the result differs from serial or the event hook
   disagrees with the runtime's counters.

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
     rows a promotable nested reduction.  The on_event hook watches the
     scheduler live — the same event stream Sim_trace records for the
     simulator. *)
  let y = Array.make n 0. in
  let ev_beats = ref 0
  and ev_loop = ref 0
  and ev_branch = ref 0
  and ev_suspends = ref 0
  and ev_tasks = ref 0 in
  let on_event ~worker:_ : Par.Runtime.event -> unit = function
    | Par.Runtime.Beat -> incr ev_beats
    | Promoted `Loop -> incr ev_loop
    | Promoted `Branch -> incr ev_branch
    | Join_suspend -> incr ev_suspends
    | Task_start -> incr ev_tasks
    | _ -> ()
  in
  let (), { total = st; _ } =
    Par.Runtime.run
      ~config:
        { Par.Runtime.default_config with
          domains = 1;
          heart_us = 100.;
          source = `Polling;
          on_event = Some on_event }
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
  let hook_beats = !ev_beats = st.beats
  and hook_promotions =
    !ev_loop = st.loop_promotions && !ev_branch = st.branch_promotions
  and hook_suspends = !ev_suspends = st.joins
  and hook_tasks = !ev_tasks = st.tasks_run in
  Printf.printf
    "event hook agrees: beats=%b promotions=%b suspends=%b tasks=%b | tasks \
     run=%d\n"
    hook_beats hook_promotions hook_suspends hook_tasks st.tasks_run;
  if not (ok && hook_beats && hook_promotions && hook_suspends && hook_tasks)
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
