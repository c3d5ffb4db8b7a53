(* repro — run one (or all) of the paper's experiments by id and print
   the regenerated table(s), or run a real workload kernel on the
   multi-domain heartbeat runtime.

   Ids: fig6 fig7 fig8 fig9 fig10 fig11 fig13 fig14 fig15 headline
   tuner ablation trace all.

   With --trace FILE, additionally simulate the experiment's
   representative configuration with the cycle recorder attached and
   write a Chrome trace-event JSON (load it at https://ui.perfetto.dev
   or chrome://tracing); the per-core timeline report prints to
   stdout.

   With --workload NAME (instead of an experiment id), run the named
   real kernel from Workloads.Real_bench on `--domains N` OCaml 5
   domains under Par.Runtime, verify its checksum against the serial
   executor, and print wall-clock plus the scheduler counters
   (beats, promotions, steals, joins).  --trace FILE attaches the
   per-domain ring-buffer tracers and writes the real run as the same
   Chrome trace-event JSON as the simulator's, with the session's GC
   phases on "gc ring K" tracks; --stats prints the full per-worker
   metrics table (idle time, steal-failure rate, callback errors, ring
   drop accounting) and the per-domain GC census. *)

open Cmdliner

let id_arg =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "One of: fig6 fig7 fig8 fig9 fig10 fig11 fig13 fig14 fig15 \
           headline tuner ablation trace all.  Omit when using \
           $(b,--workload).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON (Perfetto-loadable) to $(docv): \
           for an experiment id, the simulator's per-core cycle trace of \
           the representative configuration; for $(b,--workload), the real \
           runtime's per-domain ring-buffer trace.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "With $(b,--workload), print the full metrics snapshot, the \
           per-worker breakdown (idle ns, steal-failure rate, callback \
           errors) and the per-domain GC census instead of the one-line \
           totals.")

let workload_arg =
  Arg.(
    value & opt (some string) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          "Run the named real kernel on the multi-domain heartbeat runtime \
           instead of a simulated experiment.  One of: plus_reduce, \
           mergesort, mandelbrot, spmv, kmeans, srad, floyd_warshall, \
           knapsack.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for $(b,--workload) (default 1).")

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"K"
        ~doc:"Input-size multiplier for $(b,--workload) (default 1).")

let heart_arg =
  Arg.(
    value & opt float 100.
    & info [ "heart-us" ] ~docv:"US"
        ~doc:"Heartbeat period in microseconds for $(b,--workload).")

let write_trace (id : string) (file : string) : int =
  match Repro.Figures.trace_spec id with
  | None ->
      Printf.eprintf "no traceable configuration for %S\n" id;
      1
  | Some spec -> (
      (* open before simulating so a bad path fails fast, not after a
         multi-second run *)
      match open_out file with
      | exception Sys_error msg ->
          Printf.eprintf "cannot write trace: %s\n" msg;
          1
      | oc ->
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
      0)

let run_workload (name : string) (domains : int) (scale : int)
    (heart_us : float) (trace_file : string option) (stats : bool) : int =
  match Workloads.Real_bench.find name with
  | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" name
        (String.concat ", " Workloads.Real_bench.names);
      1
  | Some b ->
      if domains < 1 || scale < 1 then begin
        Printf.eprintf "--domains and --scale must be >= 1\n";
        1
      end
      else
        (* open before running, as [write_trace] does, so a bad path
           fails fast *)
        match Option.map (fun file -> (file, open_out file)) trace_file with
        | exception Sys_error msg ->
            Printf.eprintf "cannot write trace: %s\n" msg;
            1
        | trace_out ->
        Printf.printf
          "workload %s: %d items at scale %d, %d domain(s), heart %.0f us \
           (host cores: %d)\n\
           %!"
          b.name (b.base_items ~scale) scale domains heart_us
          (Domain.recommended_domain_count ());
        let t0 = Mclock.now_s () in
        let serial = Workloads.Real_bench.run_serial b ~scale in
        let serial_s = Mclock.now_s () -. t0 in
        let tracer = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
        let config =
          { Par.Runtime.default_config with domains; heart_us; tracer }
        in
        (* the per-domain GC census over the session, with --stats or
           --trace; runtime events are process-wide, so only a driver
           starts them *)
        let census =
          if not (stats || Option.is_some tracer) then None
          else
            let c = Gc_census.create ?tracer () in
            match Gc_census.start c with
            | () -> Some c
            | exception Sys_error msg ->
                Printf.eprintf "gc census off: %s\n%!" msg;
                None
        in
        (* kernel time is clocked inside the session so the speedup
           measures the scheduler, not domain spawn/join setup *)
        let (par, kernel_s), (st : Par.Runtime.stats) =
          Par.Runtime.run ~config (fun () ->
              let k0 = Mclock.now_s () in
              let sum = b.run (module Par.Runtime.Exec) ~scale in
              (sum, Mclock.now_s () -. k0))
        in
        Option.iter Gc_census.stop census;
        Printf.printf "serial   %10.4f s  checksum %d\n" serial_s serial;
        Printf.printf
          "par      %10.4f s  checksum %d  speedup %.2fx  (session %.4f s \
           incl. setup)\n"
          kernel_s par (serial_s /. kernel_s) st.elapsed_s;
        Printf.printf
          "stats    beats %d  promotions %d (%d loop, %d branch)  steals \
           %d/%d  joins %d  resumes %d  tasks %d\n"
          st.total.beats st.total.promotions st.total.loop_promotions
          st.total.branch_promotions st.total.steals st.total.steal_attempts
          st.total.joins st.total.resumes st.total.tasks_run;
        if stats then begin
          Format.printf "%a@." Obs.Metrics.pp
            (Par.Runtime.metrics ?tracer st);
          Array.iteri
            (fun i (w : Par.Runtime.worker_stats) ->
              Printf.printf
                "  worker %d: tasks %d  promotions %d  steals %d/%d  joins \
                 %d  max deque %d  idle %.3f ms\n"
                i w.tasks_run w.promotions w.steals w.steal_attempts w.joins
                w.max_deque
                (float_of_int w.idle_ns /. 1e6))
            st.per_worker;
          Option.iter (Format.printf "%a@." Gc_census.pp) census
        end
        else
          Array.iteri
            (fun i (w : Par.Runtime.worker_stats) ->
              Printf.printf
                "  worker %d: tasks %d  promotions %d  steals %d  max deque \
                 %d\n"
                i w.tasks_run w.promotions w.steals w.max_deque)
            st.per_worker;
        (match (trace_out, tracer) with
        | Some (file, oc), Some tr ->
            output_string oc (Obs.Export.to_chrome_string tr);
            close_out oc;
            Printf.printf
              "wrote %s (%d events, %d dropped) — load it at \
               https://ui.perfetto.dev\n"
              file
              (Obs.Trace.total_written tr)
              (Obs.Trace.total_dropped tr)
        | _ -> ());
        if par <> serial then begin
          Printf.eprintf
            "FATAL: parallel checksum %d diverges from serial %d\n" par serial;
          1
        end
        else begin
          Printf.printf "checksums agree\n";
          0
        end

let go id trace_file workload domains scale heart_us stats =
  match (workload, id) with
  | Some name, None ->
      run_workload name domains scale heart_us trace_file stats
  | Some _, Some _ ->
      Printf.eprintf "give either an experiment id or --workload, not both\n";
      2
  | None, None ->
      Printf.eprintf "missing EXPERIMENT id (or --workload NAME)\n";
      2
  | None, Some id -> (
      match Repro.Figures.by_name id with
      | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          1
      | Some tables -> (
          List.iter Repro.Figures.print_table tables;
          match trace_file with
          | None -> 0
          | Some file -> write_trace id file))

let () =
  let info =
    Cmd.info "repro"
      ~doc:
        "Regenerate one of the paper's figures or tables, or run a real \
         workload on the multi-domain heartbeat runtime."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const go $ id_arg $ trace_arg $ workload_arg $ domains_arg
            $ scale_arg $ heart_arg $ stats_arg)))
