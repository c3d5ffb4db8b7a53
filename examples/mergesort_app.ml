(* mergesort: the paper's mixed recursive-and-loop benchmark — the
   sort and merge expose parallelism by divide-and-conquer (promotable
   stack marks), the copy loop by a parallel for (promotable ranges).
   Sorted on the heartbeat runtime at one domain, which polls its own
   clock for beats; exits 1 when a result differs from serial.

   Run with:  dune exec examples/mergesort_app.exe *)

let () =
  let rng = Sim.Prng.create ~seed:99 in
  let n = 1_000_000 in
  let uniform =
    Workloads.Mergesort.uniform_input (module Workloads.Exec.Serial) ~rng ~n
  in
  let expo = Workloads.Mergesort.exponential_input ~rng ~n in

  List.iter
    (fun (name, input) ->
      let a = Array.copy input in
      let reference = Array.copy input in
      Workloads.Mergesort.sort (module Workloads.Exec.Serial) reference;
      let (), { total = st; _ } =
        Par.Runtime.run
          ~config:
            { Par.Runtime.default_config with domains = 1; heart_us = 100. }
          (fun () ->
            Workloads.Mergesort.sort ~grain:4096 (module Par.Runtime.Exec) a)
      in
      let sorted = Workloads.Mergesort.sorted a and matches = a = reference in
      Printf.printf
        "%-12s %d ints: sorted=%b matches-serial=%b | beats=%d promotions=%d \
         (branch=%d loop=%d) joins=%d peak-deque=%d\n%!"
        name n sorted matches st.beats st.promotions st.branch_promotions
        st.loop_promotions st.joins st.max_deque;
      if not (sorted && matches) then exit 1)
    [ ("uniform", uniform); ("exponential", expo) ];

  (* Figure 7 shape for mergesort on the simulated testbed: both
     schedulers hit the memory-bandwidth wall (~2x). *)
  print_newline ();
  List.iter
    (fun name ->
      let w = Option.get (Workloads.Workload.find name) in
      Printf.printf "%-18s  Cilk %5.2fx   TPAL/Linux %5.2fx (simulated)\n"
        w.name
        (Repro.Runner.speedup Repro.Runner.Cilk_sys w)
        (Repro.Runner.speedup Repro.Runner.Tpal_linux w))
    [ "mergesort-uniform"; "mergesort-exp" ]
