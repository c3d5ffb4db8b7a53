(* spmv: sparse matrix × dense vector on a power-law matrix — the
   paper's showcase of irregular nested parallelism.

   Three views of the same computation:
   1. the real kernel under the effects-based heartbeat runtime
      (actual promotions on a real power-law CSR matrix);
   2. correctness against the serial kernel;
   3. the simulated 15-core testbed: Cilk's eager decomposition vs
      TPAL's heartbeat, reproducing the Figure 7 shape.

   Run with:  dune exec examples/spmv_app.exe *)

module Hb : Workloads.Exec.S = struct
  let par_for = Heartbeat.Hb_runtime.par_for
  let fork2 = Heartbeat.Hb_runtime.fork2
end

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
  let on_event : Heartbeat.Hb_runtime.event -> unit = function
    | Heartbeat.Hb_runtime.Beat -> incr ev_beats
    | Promoted `Loop -> incr ev_loop
    | Promoted `Branch -> incr ev_branch
    | Join_suspend -> incr ev_suspends
    | Task_start -> incr ev_tasks
    | Join_resume | Task_finish | Stall_detected _ -> ()
  in
  let (), st =
    Heartbeat.Hb_runtime.run
      ~config:
        { Heartbeat.Hb_runtime.default_config with
          heart_us = 100.;
          source = `Polling;
          on_event = Some on_event }
      (fun () -> Workloads.Csr.spmv ~row_grain:1024 (module Hb) m x y)
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
  Printf.printf
    "event hook agrees: beats=%b promotions=%b suspends=%b | promoted tasks \
     executed=%d\n"
    (!ev_beats = st.beats)
    (!ev_loop = st.loop_promotions && !ev_branch = st.branch_promotions)
    (!ev_suspends = st.joins) !ev_tasks;

  (* Simulated testbed, Figure 7 shape. *)
  let w = Option.get (Workloads.Workload.find "spmv-powerlaw") in
  Printf.printf "\nsimulated 15-core testbed (%s):\n" w.descr;
  Printf.printf "  Cilk/Linux     speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Cilk_sys w);
  Printf.printf "  TPAL/Linux     speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Tpal_linux w);
  Printf.printf "  TPAL/Nautilus  speedup: %5.2f\n"
    (Repro.Runner.speedup Repro.Runner.Tpal_nautilus w)
