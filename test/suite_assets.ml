(* Golden integration tests: the shipped .tpal assembly files parse,
   check cleanly, and compute the right results through the full
   pipeline (file -> lexer -> parser -> checker -> evaluator). *)

open Tpal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The test binary runs from its build directory; locate the sources
   relative to the dune workspace root. *)
let asset (name : string) : string option =
  let candidates =
    [
      Filename.concat "examples/asm" name;
      Filename.concat "../examples/asm" name;
      Filename.concat "../../../examples/asm" name;
      Filename.concat "../../../../examples/asm" name;
    ]
  in
  List.find_opt Sys.file_exists candidates

let load (name : string) : Ast.program option =
  match asset name with
  | None -> None (* asset not visible from this cwd: skip silently *)
  | Some path ->
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Parser.parse_result src with
      | Ok p -> Some p
      | Error e -> Alcotest.failf "%s: %s" name e)

let run_file name seeds result expected heart =
  match load name with
  | None -> ()
  | Some p ->
      check (name ^ " checks") false
        (List.exists Check.is_error (Check.check p));
      let options =
        { Eval.default_options with heart = Some heart; fuel = 10_000_000 }
      in
      let bindings = List.map (fun (r, n) -> (r, Value.Vint n)) seeds in
      (match Eval.run_seeded ~options p bindings with
      | Ok fin ->
          check_int
            (Printf.sprintf "%s: %s" name result)
            expected
            (match Regfile.find_opt result fin.task.regs with
            | Some (Value.Vint v) -> v
            | _ -> min_int)
      | Error e -> Alcotest.failf "%s: %s" name (Machine_error.show e))

let test_prod_file () = run_file "prod.tpal" [ ("a", 37); ("b", 11) ] "c" 407 30
let test_pow_file () = run_file "pow.tpal" [ ("d", 2); ("e", 12) ] "f" 4096 40
let test_fib_file () = run_file "fib.tpal" [ ("n", 13) ] "f" 233 60

let test_prod_reduced_file () =
  run_file "prod_reduced.tpal" [ ("a", 25); ("b", 5) ] "c" 125 20

let suite =
  ( "assets",
    [
      Alcotest.test_case "prod.tpal end to end" `Quick test_prod_file;
      Alcotest.test_case "pow.tpal end to end" `Quick test_pow_file;
      Alcotest.test_case "fib.tpal end to end" `Quick test_fib_file;
      Alcotest.test_case "prod_reduced.tpal end to end" `Quick
        test_prod_reduced_file;
    ] )
