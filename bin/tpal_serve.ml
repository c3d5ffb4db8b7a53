(* Heartbeat-as-a-service driver: boot one warm multi-tenant execution
   pool and drive it, either with the seeded open-loop synthetic load
   (the default; same generator as `bench --serve-bench`) or with
   explicit requests — a registry kernel or a .tpal program.  With
   --listen it instead becomes the socket front-end: a sharded pool
   fabric behind the Net.Wire protocol; with --connect it is the
   matching load-generating client.

     tpal_serve --requests 10000 --tenants 4 --rate 20000
     tpal_serve --kernel plus_reduce --scale 2 --domains 4
     tpal_serve --tpal examples/asm/fib.tpal
     tpal_serve --listen 127.0.0.1:7411 --shards 2 --policy size
     tpal_serve --connect 127.0.0.1:7411 --requests 100000 --conns 4

   SIGINT/SIGTERM are graceful everywhere: the in-process load stops
   submitting and drains; the server prints its live heap ("server
   heap: N live words", after a full major collection), stops
   accepting, notifies clients, drains or typed-rejects queued
   requests, flushes metrics and trace output, and exits 0.

   Exits non-zero when the exactly-once audit fails (lost, duplicated
   or mismatched requests, or none completed) or an explicit request
   errors; exits 2 before anything runs when the --trace file cannot
   be opened, the --tpal file cannot be read or parsed, the --listen
   address cannot be bound, or a --listen or --connect host does not
   resolve. *)

(* a signal flag both the load loop and the server wait-loop poll;
   handlers only flip the atomic — nothing async-unsafe *)
let stop_requested = Atomic.make false

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigint h with _ -> ());
  try Sys.set_signal Sys.sigterm h with _ -> ()

let pool_config ~domains ~heart_us ~cap ~quantum ~panic_ms ~slo_ms ~lease_s
    ~tracer ~chaos : Serve.Pool.config =
  {
    (* one tracer for both layers: the server's admission/dispatch track
       interleaves with the worker-domain tracks in the same trace *)
    Serve.Pool.tracer;
    runtime =
      { Par.Runtime.default_config with domains; heart_us; tracer; chaos };
    sched =
      {
        Serve.Sched.cap;
        quantum;
        panic_slack = panic_ms /. 1e3;
      };
    default_slo_s = slo_ms /. 1e3;
    lease_s;
  }

let run_load pool ~requests ~tenants ~rate ~seed ~slo_ms ~tight_frac =
  let spec =
    {
      Serve.Load.default_spec with
      requests;
      tenants;
      rate_rps = rate;
      seed;
      slo_s = slo_ms /. 1e3;
      tight_frac;
    }
  in
  let report =
    Serve.Load.run ~interrupted:(fun () -> Atomic.get stop_requested) pool spec
  in
  Fmt.pr "%a@." Serve.Load.pp_report report;
  if Serve.Load.audit_ok report then 0
  else begin
    Fmt.epr "tpal_serve: audit FAILED (lost %d, duplicated %d, mismatched %d, completed %d)@."
      report.lost report.duplicated report.mismatched report.completed;
    1
  end


let run_kernel pool ~kernel ~scale =
  match Workloads.Real_bench.find kernel with
  | None ->
      Fmt.epr "tpal_serve: unknown kernel %S (known: %s)@." kernel
        (String.concat ", "
           (List.map
              (fun (b : Workloads.Real_bench.t) -> b.name)
              Workloads.Real_bench.all));
      2
  | Some bench -> (
      let expected = Workloads.Real_bench.run_serial bench ~scale in
      match
        Serve.Pool.submit pool ~tenant:"cli"
          (Serve.Pool.Kernel { bench; scale })
      with
      | Error e ->
          Fmt.epr "tpal_serve: submit rejected (%a)@." Serve.Pool.pp_error e;
          1
      | Ok ticket -> (
          match Serve.Pool.await pool ticket with
          | Ok { outcome = Serve.Pool.Checksum c; sojourn_s; met_deadline } ->
              Fmt.pr
                "%s scale %d: checksum %d (%s serial), %.3f ms, deadline %s@."
                kernel scale c
                (if c = expected then "matches" else "MISMATCHES")
                (1e3 *. sojourn_s)
                (if met_deadline then "met" else "missed");
              if c = expected then 0 else 1
          | Ok _ -> assert false
          | Error e ->
              Fmt.epr "tpal_serve: kernel request errored (%a)@."
                Serve.Pool.pp_error e;
              1))

let read_file (path : string) : string =
  In_channel.with_open_bin path In_channel.input_all

(* seed registers by prepending moves to the entry block — requests
   carry whole programs, so arguments travel inside the program *)
let seed_program (prog : Tpal.Ast.program) (seeds : (string * int) list) :
    Tpal.Ast.program =
  if seeds = [] then prog
  else
    {
      prog with
      blocks =
        List.map
          (fun (label, (b : Tpal.Ast.block)) ->
            if label <> prog.entry then (label, b)
            else
              ( label,
                {
                  b with
                  body =
                    List.map
                      (fun (r, n) -> Tpal.Ast.Mov (r, Tpal.Ast.Int n))
                      seeds
                    @ b.body;
                } ))
          prog.blocks;
    }

(* [path]'s program with [seeds] bound, read before any pool boots *)
let load_tpal ~path ~seeds : (Tpal.Ast.program, string) result =
  match Tpal.Parser.parse_result (read_file path) with
  | Ok prog -> Ok (seed_program prog seeds)
  | Error msg -> Error msg
  | exception Sys_error msg ->
      (* opening names the file in [msg], reading a directory does not *)
      let prefix = path ^ ": " in
      Error
        ("cannot read "
        ^ if String.starts_with ~prefix msg then msg else prefix ^ msg)

let run_tpal pool ~path ~prog =
  match
    Serve.Pool.submit pool ~tenant:"cli"
      (Serve.Pool.Tpal { prog; options = Tpal.Eval.default_options })
  with
  | Error e ->
      Fmt.epr "tpal_serve: submit rejected (%a)@." Serve.Pool.pp_error e;
      1
  | Ok ticket -> (
      match Serve.Pool.await pool ticket with
      | Ok { outcome = Serve.Pool.Tpal_result (Ok task); sojourn_s; _ } ->
          Fmt.pr "@[<v>%s: finished in %.3f ms@,%a@]@." path
            (1e3 *. sojourn_s) Tpal.Regfile.pp task.regs;
          0
      | Ok { outcome = Serve.Pool.Tpal_result (Error e); _ } ->
          Fmt.epr "tpal_serve: machine stuck: %a@." Tpal.Machine_error.pp e;
          1
      | Ok _ -> assert false
      | Error e ->
          Fmt.epr "tpal_serve: request errored (%a)@." Serve.Pool.pp_error e;
          1)

(* With --metrics or --trace, a per-domain GC census counts the
   collector's stop-the-world sections from before the pools start
   until the load ends: a table with --metrics, "gc ring K" tracks
   with --trace.  Runtime events are process-wide, so this driver
   starts them, never a library; without either flag nothing does. *)
let start_census ~metrics ~(tracer : Obs.Trace.t option) :
    Gc_census.t option =
  if not (metrics || Option.is_some tracer) then None
  else
    let c = Gc_census.create ?tracer () in
    match Gc_census.start c with
    | () -> Some c
    | exception Sys_error msg ->
        Fmt.epr "tpal_serve: gc census off: %s@." msg;
        None

let print_census ~metrics (census : Gc_census.t option) : unit =
  match census with
  | Some c when metrics -> Fmt.pr "%a@." Gc_census.pp c
  | _ -> ()

(* [trace] is the file named by --trace, opened before the run. *)
let write_trace ~(trace : (string * out_channel) option)
    ~(tracer : Obs.Trace.t option) : unit =
  match (trace, tracer) with
  | Some (file, oc), Some tr ->
      output_string oc (Obs.Export.to_chrome_string ~process:"tpal-serve" tr);
      close_out oc;
      Fmt.pr
        "wrote %s (%d events, %d dropped) — load it at \
         https://ui.perfetto.dev@."
        file
        (Obs.Trace.total_written tr)
        (Obs.Trace.total_dropped tr)
  | _ -> ()

(* --listen: the socket front-end.  Blocks until SIGINT/SIGTERM, then
   drains gracefully and exits 0. *)
let run_server ~listen ~domains ~heart_us ~cap ~quantum ~panic_ms ~slo_ms
    ~lease_s ~tracer ~chaos ~shards ~policy ~small_max ~metrics =
  match Net.Server.addr_of_string listen with
  | None ->
      Fmt.epr "tpal_serve: bad --listen address %S (want host:port, \
               unix:PATH or a path with a /)@." listen;
      2
  | Some addr -> (
      match Net.Router.policy_of_string ~small_max policy with
      | None ->
          Fmt.epr
            "tpal_serve: unknown --policy %S (want hash | jsq | size)@." policy;
          2
      | Some policy ->
          install_signal_handlers ();
          let shard_cfg =
            {
              Net.Shard.default_config with
              shards;
              pool =
                pool_config ~domains ~heart_us ~cap ~quantum ~panic_ms ~slo_ms
                  ~lease_s ~tracer ~chaos;
              policy;
            }
          in
          let census = start_census ~metrics ~tracer in
          let refused msg =
            Option.iter Gc_census.stop census;
            Fmt.epr "tpal_serve: %s@." msg;
            2
          in
          match
            Net.Server.create
              ~config:
                { Net.Server.default_config with shard = shard_cfg; tracer }
              addr ()
          with
          | exception Net.Server.Unresolved host ->
              refused ("cannot resolve " ^ host)
          | exception Unix.Unix_error (e, _, _) ->
              refused
                (Printf.sprintf "cannot listen on %s: %s" listen
                   (Unix.error_message e))
          | srv ->
          Fmt.pr "listening on %s: %d shard(s) x %d domain(s), policy %s@."
            (Net.Server.addr_to_string (Net.Server.bound_addr srv))
            shards domains
            (Net.Router.policy_name policy);
          while not (Atomic.get stop_requested) do
            Thread.delay 0.05
          done;
          Option.iter Gc_census.stop census;
          (* measured before [stop], while the server still holds its
             connections and shards: state kept for tickets already
             answered shows up here, and is gone once it drains *)
          Gc.full_major ();
          Fmt.pr "server heap: %d live words@." (Gc.stat ()).live_words;
          Fmt.pr "draining...@.";
          let st = Net.Server.stop srv in
          Fmt.pr
            "server: %d conns, %d submits, %d responses, frames rx %d / tx \
             %d, %d skipped, %d dead conns@."
            st.conns st.submits st.responses st.frames_rx st.frames_tx
            st.skipped st.dead_conns;
          Array.iteri
            (fun i (ss : Net.Shard.shard_stats) ->
              Fmt.pr "shard %d: routed %d, submitted %d, served %d (met %d)@."
                i ss.routed ss.pool.submitted ss.pool.served ss.pool.met)
            st.shard.per_shard;
          if metrics then
            Array.iteri
              (fun i (ss : Net.Shard.shard_stats) ->
                Fmt.pr "shard %d latency: %a@." i Obs.Hist.pp_summary
                  ss.pool.latency)
              st.shard.per_shard;
          print_census ~metrics census;
          0)

(* --connect: the load-generating client; the exactly-once audit is
   the exit code. *)
let run_client ~connect ~requests ~conns ~tenants ~seed ~slo_ms ~tight_frac
    ~window ~small_max =
  match Net.Server.addr_of_string connect with
  | None ->
      Fmt.epr "tpal_serve: bad --connect address %S@." connect;
      2
  | Some addr -> (
      match Net.Server.sockaddr addr with
      | exception Net.Server.Unresolved host ->
          Fmt.epr "tpal_serve: cannot resolve %s@." host;
          2
      | _ ->
          let spec =
            {
              Net.Netload.default_spec with
              requests;
              conns;
              tenants;
              seed;
              slo_s = slo_ms /. 1e3;
              tight_frac;
              small_max;
              window;
            }
          in
          let r = Net.Netload.run addr spec in
          Fmt.pr "%a@." Net.Netload.pp_report r;
          if Net.Netload.audit_ok r then 0
          else begin
            Fmt.epr
              "tpal_serve: audit FAILED (lost %d, duplicated %d, mismatched \
               %d, completed %d)@."
              r.lost r.duplicated r.mismatched r.completed;
            1
          end)

let run ~requests ~tenants ~rate ~seed ~slo_ms ~tight_frac ~domains ~heart_us
    ~cap ~quantum ~panic_ms ~lease_s ~chaos_seed ~kernel ~scale ~tpal ~seeds
    ~metrics ~trace ~listen ~connect ~shards ~policy ~small_max ~conns ~window
    =
  match Option.map (fun file -> (file, open_out file)) trace with
  | exception Sys_error msg ->
      Fmt.epr "cannot write trace: %s@." msg;
      2
  | trace ->
  let tracer = Option.map (fun _ -> Obs.Trace.create ()) trace in
  let chaos =
    match chaos_seed with
    | None -> None
    | Some cs -> Some (Par.Chaos.random_plan ~raises:false ~seed:cs ~domains ())
  in
  (match chaos with
  | Some plan -> Fmt.pr "chaos: %a@." Par.Chaos.pp_plan plan
  | None -> ());
  match (listen, connect) with
  | Some listen, _ ->
      let code =
        run_server ~listen ~domains ~heart_us ~cap ~quantum ~panic_ms ~slo_ms
          ~lease_s ~tracer ~chaos ~shards ~policy ~small_max ~metrics
      in
      (* the file is open: a refused address leaves it a valid, empty
         trace *)
      write_trace ~trace ~tracer;
      code
  | None, Some connect ->
      let code =
        run_client ~connect ~requests ~conns ~tenants ~seed ~slo_ms ~tight_frac
          ~window ~small_max
      in
      (* the file is open: leave it a valid, empty trace *)
      write_trace ~trace ~tracer;
      code
  | None, None ->
  match
    match (kernel, tpal) with
    | None, Some path ->
        Result.map (fun prog -> Some (path, prog)) (load_tpal ~path ~seeds)
    | _ -> Ok None
  with
  | Error msg ->
      Fmt.epr "tpal_serve: %s@." msg;
      (* the file is open: leave it a valid, empty trace *)
      write_trace ~trace ~tracer;
      2
  | Ok tpal ->
  install_signal_handlers ();
  let census = start_census ~metrics ~tracer in
  let pool =
    Serve.Pool.create
      ~config:
        (pool_config ~domains ~heart_us ~cap ~quantum ~panic_ms ~slo_ms
           ~lease_s ~tracer ~chaos)
      ()
  in
  let code =
    match (kernel, tpal) with
    | Some k, _ -> run_kernel pool ~kernel:k ~scale
    | None, Some (path, prog) -> run_tpal pool ~path ~prog
    | None, None ->
        run_load pool ~requests ~tenants ~rate ~seed ~slo_ms ~tight_frac
  in
  let st = Serve.Pool.close pool in
  Option.iter Gc_census.stop census;
  Fmt.pr
    "pool: submitted %d, served %d (met %d, missed %d), shed %d, rejected \
     %d, cancelled %d, cancels %d, restarts %d, failures %d, stalls %d@."
    st.submitted st.served st.met st.missed st.shed st.sched.rejected
    st.cancelled st.cancels st.restarts st.failures st.stalls_detected;
  if metrics then begin
    Fmt.pr "%a@." Obs.Metrics.pp (Serve.Pool.metrics ?tracer st);
    Fmt.pr "latency (all tenants): %a@." Obs.Hist.pp_summary st.latency;
    List.iter
      (fun (tenant, s) ->
        Fmt.pr "latency %-8s %a@." tenant Obs.Hist.pp_summary s)
      st.latency_per_tenant
  end;
  print_census ~metrics census;
  write_trace ~trace ~tracer;
  code

open Cmdliner

(* counts that must be at least one: a zero cap, quantum or shard count
   makes the pool or the fabric refuse its configuration, a zero
   window would have the client wait for fewer than zero requests in
   flight, a negative request count makes the load generators raise,
   and a kernel cannot size its input from a scale below 1 *)
let pos_int : int Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let requests =
  Arg.(value & opt pos_int 10_000 & info [ "requests" ] ~docv:"N" ~doc:"Synthetic-load request count.")

let tenants =
  Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"N" ~doc:"Tenant count (Zipf-skewed offered load).")

let rate =
  Arg.(value & opt float 20_000. & info [ "rate" ] ~docv:"RPS" ~doc:"Poisson arrival rate; 0 submits as fast as possible.")

let seed =
  Arg.(value & opt int 0x5E12E & info [ "seed" ] ~docv:"N" ~doc:"Load-generator seed.")

let slo_ms =
  Arg.(value & opt float 50. & info [ "slo-ms" ] ~docv:"MS" ~doc:"Default request deadline.")

let tight_frac =
  Arg.(value & opt float 0.1 & info [ "tight-frac" ] ~docv:"F" ~doc:"Fraction of requests with 10x tighter deadlines.")

let domains =
  Arg.(value & opt int (max 1 (Domain.recommended_domain_count () - 1))
    & info [ "domains" ] ~docv:"D" ~doc:"Worker domains in the warm session.")

let heart_us =
  Arg.(value & opt float 30. & info [ "heart-us" ] ~docv:"US" ~doc:"Heartbeat period.")

let cap =
  Arg.(value & opt pos_int 512 & info [ "cap" ] ~docv:"N" ~doc:"Admission cap (queued requests across tenants).")

let quantum =
  Arg.(value & opt pos_int 1 & info [ "quantum" ] ~docv:"N" ~doc:"DRR deficit grant per round, in size units.")

let panic_ms =
  Arg.(value & opt float 1. & info [ "panic-ms" ] ~docv:"MS" ~doc:"EDF panic slack: requests this close to deadline bypass round-robin order.")

let lease_s =
  Arg.(value & opt float 10. & info [ "lease-s" ] ~docv:"S" ~doc:"Wedged-request lease before the pool degrades; 0 disables the watchdog.")

let chaos_seed =
  Arg.(value & opt (some int) None
    & info [ "chaos-seed" ] ~docv:"N"
        ~doc:"Inject a seeded timing-fault plan (beat stalls, slowdowns, \
              dropped beats) into the warm session's worker domains; the \
              exactly-once audit must still pass.")

let kernel =
  Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"NAME" ~doc:"Submit one registry kernel instead of the synthetic load.")

let scale =
  Arg.(value & opt pos_int 1 & info [ "scale" ] ~docv:"N" ~doc:"Kernel scale factor.")

let tpal =
  Arg.(value & opt (some string) None & info [ "tpal" ] ~docv:"FILE" ~doc:"Submit one .tpal program instead of the synthetic load.")

let seed_conv : (string * int) Arg.conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ r; v ] -> (
        match int_of_string_opt v with
        | Some n -> Ok (r, n)
        | None -> Error (`Msg ("invalid integer in seed " ^ s)))
    | _ -> Error (`Msg ("expected reg=int, got " ^ s))
  in
  let print ppf (r, n) = Format.fprintf ppf "%s=%d" r n in
  Arg.conv (parse, print)

let seeds =
  Arg.(value & opt_all seed_conv []
    & info [ "r" ] ~docv:"REG=INT"
        ~doc:"Initial register binding for --tpal (repeatable).")

let metrics =
  Arg.(value & flag
    & info [ "metrics" ]
        ~doc:"Print the runtime metrics snapshot, per-tenant latency \
              percentiles (p50/p95/p99) and the per-domain GC census \
              (stop-the-world sections, minor collections and major \
              slices per runtime ring) at shutdown.")

let trace =
  Arg.(value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record the server's admission/dispatch decisions, the \
              worker domains' scheduler events and the collector's GC \
              phases (one \"gc ring K\" track per runtime ring) into \
              per-domain ring buffers and write them to $(docv) as Chrome \
              trace-event JSON (Perfetto-loadable).")

let listen =
  Arg.(value & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Serve the wire protocol on $(docv) (host:port, port 0 picks a \
              free one; or a Unix socket, unix:PATH or a path with a /).  \
              Runs until SIGINT/SIGTERM, then drains gracefully and exits 0.")

let connect =
  Arg.(value & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Run as a load-generating client against a --listen server at \
              $(docv); the exactly-once audit is the exit code.")

let shards =
  Arg.(value & opt pos_int 2
    & info [ "shards" ] ~docv:"N"
        ~doc:"Server mode: number of pools, each with its own --domains \
              worker domains over a disjoint domain set.")

let policy =
  Arg.(value & opt string "size"
    & info [ "policy" ] ~docv:"P"
        ~doc:"Server mode: request placement — $(b,hash) (tenant affinity), \
              $(b,jsq) (join shortest queue), or $(b,size) (a reserved \
              small-request shard; small requests never queue behind a \
              large one).")

let small_max =
  Arg.(value & opt int 4
    & info [ "small-max" ] ~docv:"N"
        ~doc:"DRR-size threshold of the small-request class: the size \
              policy's routing in server mode, the small/large latency \
              split in client mode.")

let conns =
  Arg.(value & opt pos_int 2
    & info [ "conns" ] ~docv:"N" ~doc:"Client mode: concurrent connections.")

let window =
  Arg.(value & opt pos_int 64
    & info [ "window" ] ~docv:"N"
        ~doc:"Client mode: max in-flight requests per connection (windowed \
              closed loop).")

let cmd =
  let doc = "a multi-tenant TPAL execution server over one warm heartbeat session" in
  Cmd.v
    (Cmd.info "tpal_serve" ~doc)
    Term.(
      const
        (fun requests tenants rate seed slo_ms tight_frac domains heart_us cap
             quantum panic_ms lease_s chaos_seed kernel scale tpal seeds
             metrics trace listen connect shards policy small_max conns
             window ->
          run ~requests ~tenants ~rate ~seed ~slo_ms ~tight_frac ~domains
            ~heart_us ~cap ~quantum ~panic_ms ~lease_s ~chaos_seed ~kernel
            ~scale ~tpal ~seeds ~metrics ~trace ~listen ~connect ~shards
            ~policy ~small_max ~conns ~window)
      $ requests $ tenants $ rate $ seed $ slo_ms $ tight_frac $ domains
      $ heart_us $ cap $ quantum $ panic_ms $ lease_s $ chaos_seed $ kernel
      $ scale $ tpal $ seeds $ metrics $ trace $ listen $ connect $ shards
      $ policy $ small_max $ conns $ window)

let () = exit (Cmd.eval' cmd)
