(* repro — run one (or all) of the paper's experiments by id and print
   the regenerated table(s).

   Ids: fig6 fig7 fig8 fig9 fig10 fig11 fig13 fig14 fig15 headline
   tuner ablation trace all.

   With --trace FILE, additionally simulate the experiment's
   representative configuration with the cycle recorder attached and
   write a Chrome trace-event JSON (load it at https://ui.perfetto.dev
   or chrome://tracing); the per-core timeline report prints to
   stdout.

   Real kernels on the multi-domain heartbeat runtime run under
   `bench --par-bench`, whose --trace run prints their scheduler
   counters, per-worker breakdown and GC census. *)

open Cmdliner

let id_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "One of: fig6 fig7 fig8 fig9 fig10 fig11 fig13 fig14 fig15 \
           headline tuner ablation trace all.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the simulator's per-core cycle trace of the experiment's \
           representative configuration to $(docv) as a Chrome \
           trace-event JSON (Perfetto-loadable).")

let write_trace (id : string) (file : string) (oc : out_channel) : int =
  match Repro.Figures.trace_spec id with
  | None ->
      Printf.eprintf "no traceable configuration for %S\n" id;
      1
  | Some spec ->
      let metrics, tr = Repro.Runner.measure_traced spec in
      output_string oc (Sim.Sim_trace.to_chrome_string tr);
      close_out oc;
      print_newline ();
      print_string (Sim.Sim_trace.report tr);
      if Sim.Metrics.degraded metrics then
        Printf.printf
          "recovery: cores_lost=%d leases_expired=%d tasks_reexecuted=%d \
           recovery_cycles=%d (mean %.0f per re-execution)\n"
          metrics.cores_lost metrics.leases_expired metrics.tasks_reexecuted
          metrics.recovery_cycles
          (Sim.Metrics.mean_recovery_cycles metrics);
      Printf.printf
        "\nwrote %s (%d events) — load it at https://ui.perfetto.dev\n" file
        (Sim.Sim_trace.length tr);
      0

let go id trace_file =
  (* open the trace before the experiment runs, so a bad path fails
     fast, not after a multi-second simulation *)
  match Option.map (fun file -> (file, open_out file)) trace_file with
  | exception Sys_error msg ->
      Printf.eprintf "cannot write trace: %s\n" msg;
      2
  | out -> (
      match Repro.Figures.by_name id with
      | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          1
      | Some tables -> (
          List.iter Repro.Figures.print_table tables;
          match out with
          | None -> 0
          | Some (file, oc) -> write_trace id file oc))

let () =
  let info =
    Cmd.info "repro" ~doc:"Regenerate one of the paper's figures or tables."
  in
  exit (Cmd.eval' (Cmd.v info Term.(const go $ id_arg $ trace_arg)))
