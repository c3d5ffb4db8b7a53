(* Quickstart: take the paper's running example (prod, Figure 2, as
   parsed from examples/asm/prod.tpal), run it serially and under
   heartbeat scheduling, inspect the cost semantics, and round-trip it
   through the textual assembly syntax.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. The canned paper program: c = a * b by repeated addition. *)
  let program = Tpal.Programs.prod in

  (* 2. Irrevocably sequential execution: heartbeat off. *)
  let serial = { Tpal.Eval.default_options with heart = None } in
  (match Tpal.Programs.run_prod ~options:serial ~a:1000 ~b:7 () with
  | Ok (c, fin) ->
      Fmt.pr "serial:    c = %d  (%d instructions, %d forks)@." c
        fin.stats.instructions fin.stats.forks
  | Error e -> Fmt.epr "error: %a@." Tpal.Machine_error.pp e);

  (* 3. The same binary under heartbeat scheduling: promotions fire
     every ♥ = 50 cycles at the promotion-ready loop header, forking
     half the remaining iterations each time. *)
  let beating = { Tpal.Eval.default_options with heart = Some 50 } in
  (match Tpal.Programs.run_prod ~options:beating ~a:1000 ~b:7 () with
  | Ok (c, fin) ->
      Fmt.pr
        "heartbeat: c = %d  (%d instructions, %d promotions, %d forks, %d \
         joins)@."
        c fin.stats.instructions fin.stats.promotions fin.stats.forks
        fin.stats.join_continues;
      (* 4. The cost semantics (Figure 28): work, span and the implied
         average parallelism of this execution's cost graph. *)
      Fmt.pr "cost:      %a  → parallelism %.1f@." Tpal.Cost.pp_summary
        fin.cost
        (Tpal.Cost.parallelism fin.cost)
  | Error e -> Fmt.epr "error: %a@." Tpal.Machine_error.pp e);

  (* 5. Programs are plain data: print the assembly, parse it back,
     check it statically. *)
  let source = Tpal.Printer.program_to_string program in
  Fmt.pr "@.--- prod in concrete syntax (first 6 lines) ---@.";
  String.split_on_char '\n' source
  |> List.filteri (fun i _ -> i < 6)
  |> List.iter print_endline;
  match Tpal.Parser.parse_result source with
  | Ok reparsed ->
      Fmt.pr "round-trips: %b; checker diagnostics: %d@."
        (Tpal.Ast.equal_program reparsed program)
        (List.length (Tpal.Check.check reparsed))
  | Error e -> Fmt.epr "parse error: %s@." e
