(* tpali — the TPAL assembly interpreter.

   Subcommands:
     run      parse, check and evaluate a .tpal file
     check    static well-formedness only
     trace    evaluate with a step-by-step trace
     profile  what-if span profile: rank source regions by the
              whole-program speedup predicted were each N x more
              parallel (Coz/TASKPROF-style causal attribution over
              the cost semantics)

   Register seeding: [-r a=7 -r b=6]; result extraction: [--result c];
   heartbeat: [--heart N] (cycles; 0 disables). *)

open Cmdliner

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_program path =
  match Tpal.Parser.parse_result (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error (`Msg e)

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

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.tpal")

let seeds_arg =
  Arg.(
    value & opt_all seed_conv []
    & info [ "r"; "reg" ] ~docv:"REG=INT" ~doc:"Seed register $(docv).")

let heart_arg =
  Arg.(
    value & opt int 1000
    & info [ "heart" ] ~docv:"CYCLES"
        ~doc:"Heartbeat threshold in cycles; 0 disables promotion.")

let fuel_arg =
  Arg.(
    value & opt int 200_000_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget.")

let result_arg =
  Arg.(
    value & opt_all string []
    & info [ "result" ] ~docv:"REG" ~doc:"Print register $(docv) at halt.")

let options ~heart ~fuel =
  { Tpal.Eval.default_options with
    heart = (if heart <= 0 then None else Some heart);
    fuel }

let print_outcome (fin : Tpal.Eval.finished) (results : string list) =
  List.iter
    (fun r ->
      match Tpal.Regfile.find_opt r fin.task.regs with
      | Some v -> Fmt.pr "%s = %a@." r Tpal.Value.pp v
      | None -> Fmt.pr "%s = <unbound>@." r)
    results;
  Fmt.pr
    "stopped: %s | instructions=%d promotions=%d forks=%d joins=%d | %a@."
    (match fin.stop with
    | Tpal.Eval.Halted -> "halt"
    | Tpal.Eval.Blocked j -> Printf.sprintf "blocked on j%d" j)
    fin.stats.instructions fin.stats.promotions fin.stats.forks
    fin.stats.join_continues Tpal.Cost.pp_summary fin.cost

let run_cmd =
  let go file seeds heart fuel results =
    match parse_program file with
    | Error (`Msg e) ->
        Fmt.epr "%s@." e;
        1
    | Ok p -> (
        match Tpal.Check.errors p with
        | _ :: _ as errs ->
            List.iter (fun d -> Fmt.epr "%a@." Tpal.Check.pp_diagnostic d) errs;
            1
        | [] -> (
            let bindings =
              List.map (fun (r, n) -> (r, Tpal.Value.Vint n)) seeds
            in
            match
              Tpal.Eval.run_seeded ~options:(options ~heart ~fuel) p bindings
            with
            | Ok fin ->
                print_outcome fin results;
                0
            | Error e ->
                Fmt.epr "machine error: %a@." Tpal.Machine_error.pp e;
                1))
  in
  Cmd.v (Cmd.info "run" ~doc:"Parse, check and evaluate a TPAL program.")
    Term.(const go $ file_arg $ seeds_arg $ heart_arg $ fuel_arg $ result_arg)

let check_cmd =
  let go file =
    match parse_program file with
    | Error (`Msg e) ->
        Fmt.epr "%s@." e;
        1
    | Ok p ->
        let diags = Tpal.Check.check p in
        List.iter (fun d -> Fmt.pr "%a@." Tpal.Check.pp_diagnostic d) diags;
        if List.exists Tpal.Check.is_error diags then 1
        else begin
          Fmt.pr "%s: %d blocks, ok@." file (List.length p.blocks);
          0
        end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Statically check a TPAL program.")
    Term.(const go $ file_arg)

(* Export abstract-machine trace entries as Chrome trace-event JSON:
   one instant per executed instruction, timestamped by the machine's
   own cycle counter, so a .tpal run can be eyeballed in Perfetto next
   to a simulator trace. *)
let entries_to_chrome (entries : Tpal.Trace.entry list) : string =
  let module C = Stats.Chrome_trace in
  C.to_string
    (C.process_name ~pid:0 "tpali"
    :: C.thread_name ~pid:0 ~tid:0 "abstract machine"
    :: List.map
         (fun (e : Tpal.Trace.entry) ->
           C.instant ~cat:"instruction"
             ~args:
               ([
                  ("index", Stats.Json.Int e.index);
                  ("cycles", Stats.Json.Int e.cycles);
                  ("pc", Stats.Json.Str (Fmt.str "%a" Tpal.Task.pp_pc e.pc));
                ]
               @ List.map
                   (fun (r, v) -> ("reg:" ^ r, Stats.Json.Str v))
                   e.watched)
             ~name:e.what ~pid:0 ~tid:0
             ~ts:(float_of_int e.cycles)
             ())
         entries)

let trace_cmd =
  let limit_arg =
    Arg.(
      value & opt int 200
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum trace entries.")
  in
  let watch_arg =
    Arg.(
      value & opt_all string []
      & info [ "watch" ] ~docv:"REG" ~doc:"Watch register $(docv).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the trace to $(docv) in Chrome trace-event JSON \
             (Perfetto-loadable), one instant event per instruction.")
  in
  let go file seeds heart fuel watch limit json =
    match parse_program file with
    | Error (`Msg e) ->
        Fmt.epr "%s@." e;
        1
    | Ok p ->
        let bindings = List.map (fun (r, n) -> (r, Tpal.Value.Vint n)) seeds in
        let entries, res =
          Tpal.Trace.collect ~watch_regs:watch ~limit
            ~options:(options ~heart ~fuel) p bindings
        in
        print_endline (Tpal.Trace.to_string entries);
        let json_rc =
          match json with
          | None -> 0
          | Some f -> (
              match open_out f with
              | exception Sys_error msg ->
                  Fmt.epr "cannot write trace: %s@." msg;
                  1
              | oc ->
                  output_string oc (entries_to_chrome entries);
                  close_out oc;
                  Fmt.pr "wrote %s (%d events)@." f (List.length entries);
                  0)
        in
        (match res with
        | Ok fin -> print_outcome fin []
        | Error e -> Fmt.epr "machine error: %a@." Tpal.Machine_error.pp e);
        json_rc
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Evaluate with a step-by-step trace.")
    Term.(
      const go $ file_arg $ seeds_arg $ heart_arg $ fuel_arg $ watch_arg
      $ limit_arg $ json_arg)

let profile_cmd =
  let factor_arg =
    Arg.(
      value & opt float 8.
      & info [ "factor" ] ~docv:"F"
          ~doc:
            "What-if factor: predict the speedup were each region $(docv) \
             times more parallel (its span divided by $(docv)).")
  in
  let procs_arg =
    Arg.(
      value & opt int 0
      & info [ "procs" ] ~docv:"P"
          ~doc:
            "Predict wall-clock with Brent's bound W/$(docv) + S instead of \
             the span alone (0 = unbounded processors).")
  in
  let top_arg =
    Arg.(
      value & opt int 0
      & info [ "top" ] ~docv:"N"
          ~doc:"Show only the $(docv) highest-span regions (0 = all).")
  in
  let go file seeds heart fuel factor procs top =
    match parse_program file with
    | Error (`Msg e) ->
        Fmt.epr "%s@." e;
        1
    | Ok p -> (
        match Tpal.Check.errors p with
        | _ :: _ as errs ->
            List.iter (fun d -> Fmt.epr "%a@." Tpal.Check.pp_diagnostic d) errs;
            1
        | [] -> (
            let bindings =
              List.map (fun (r, n) -> (r, Tpal.Value.Vint n)) seeds
            in
            match
              Obs.Profile.of_eval ~options:(options ~heart ~fuel) ~bindings p
            with
            | Error e ->
                Fmt.epr "machine error: %a@." Tpal.Machine_error.pp e;
                1
            | Ok (prof, fin) ->
                print_string (Obs.Profile.report ~procs ~factor ~top prof);
                print_newline ();
                Fmt.pr
                  "stopped: %s | instructions=%d promotions=%d forks=%d \
                   joins=%d@."
                  (match fin.stop with
                  | Tpal.Eval.Halted -> "halt"
                  | Tpal.Eval.Blocked j -> Printf.sprintf "blocked on j%d" j)
                  fin.stats.instructions fin.stats.promotions fin.stats.forks
                  fin.stats.join_continues;
                0))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a TPAL program: attribute work and span to source regions \
          and rank them by predicted whole-program speedup were each more \
          parallel.")
    Term.(
      const go $ file_arg $ seeds_arg $ heart_arg $ fuel_arg $ factor_arg
      $ procs_arg $ top_arg)

let () =
  let info =
    Cmd.info "tpali" ~version:"1.0"
      ~doc:"Interpreter for TPAL, the Task Parallel Assembly Language."
  in
  exit
    (Cmd.eval' (Cmd.group info [ run_cmd; check_cmd; trace_cmd; profile_cmd ]))
