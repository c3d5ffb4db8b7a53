(* Differential fuzzing in tier-1: bounded batteries of the lib/fuzz
   harness (the unbounded version is bin/tpal_fuzz.ml), sanity
   properties of the generator and shrinker, and replay of the
   committed shrunk reproducers under test/corpus. *)

open Fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pp_divs ds =
  String.concat "; "
    (List.map
       (fun (d : Diff.divergence) -> "[" ^ d.oracle ^ "] " ^ d.detail)
       ds)

(* a trimmed battery for per-commit latency: one mechanism, two core
   counts, faults, and the real runtime at one and two domains still
   on *)
let quick_cfg =
  {
    Diff.cores = [ 1; 4 ];
    mechs = [ Sim.Interrupts.Nautilus_ipi ];
    faults = true;
    chaos = false;
    par = [ 1; 2 ];
    chaos_par = false;
  }

(* a smaller slice with the crash-schedule battery switched on, so the
   recovery oracles run on every commit too *)
let chaos_cfg = { quick_cfg with Diff.chaos = true }

(* the real-runtime fault-injection slice: every oracle off except the
   chaos-par battery itself (the plain batteries above already cover
   the rest), at 1 and 2 domains *)
let chaos_par_cfg =
  {
    quick_cfg with
    Diff.faults = false;
    par = [ 1; 2 ];
    chaos_par = true;
  }

let test_battery_chaos_par () =
  for seed = 1 to 15 do
    let g = Gen.generate ~seed in
    match Diff.check_gen ~cfg:chaos_par_cfg g with
    | [] -> ()
    | ds -> Alcotest.failf "seed %d: %s" seed (pp_divs ds)
  done

let test_battery_chaos () =
  for seed = 1 to 10 do
    let g = Gen.generate ~seed in
    match Diff.check_gen ~cfg:chaos_cfg g with
    | [] -> ()
    | ds -> Alcotest.failf "seed %d: %s" seed (pp_divs ds)
  done

let test_battery_quick () =
  for seed = 1 to 30 do
    let g = Gen.generate ~seed in
    match Diff.check_gen ~cfg:quick_cfg g with
    | [] -> ()
    | ds -> Alcotest.failf "seed %d: %s" seed (pp_divs ds)
  done

let test_battery_full_cfg () =
  (* a handful of seeds through the full default battery: all three
     interrupt mechanisms, P ∈ {1, 4, 15}, fault injection, the real
     runtime at 1, 2 and 4 domains *)
  for seed = 1000 to 1004 do
    let g = Gen.generate ~seed in
    match Diff.check_gen g with
    | [] -> ()
    | ds -> Alcotest.failf "seed %d: %s" seed (pp_divs ds)
  done

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.generate ~seed and b = Gen.generate ~seed in
      check
        (Printf.sprintf "seed %d reproduces" seed)
        true
        (Tpal.Ast.equal_program a.prog b.prog);
      check (Printf.sprintf "seed %d outputs" seed) true
        (a.outputs = b.outputs))
    [ 1; 7; 42; 1234; 99991 ]

let prop_generated_valid =
  QCheck.Test.make ~name:"generated programs are well-formed and halt"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Gen.generate ~seed in
      Tpal.Check.errors g.prog = []
      &&
      match
        Tpal.Eval.run
          ~options:
            { Tpal.Eval.default_options with heart = None; fuel = 5_000_000 }
          g.prog
      with
      | Ok { stop = Tpal.Eval.Halted; _ } -> true
      | Ok _ | Error _ -> false)

(* --- shrinker --- *)

let test_shrinker_minimizes () =
  let g = Gen.generate ~seed:5 in
  (* an always-true predicate shrinks as far as admissibility allows *)
  let small = Shrink.minimize ~still_fails:(fun _ -> true) g.prog in
  check "strictly smaller" true (Shrink.size small < Shrink.size g.prog);
  check "still admissible" true (Shrink.admissible small)

let test_shrinker_respects_predicate () =
  let g = Gen.generate ~seed:5 in
  let feature (p : Tpal.Ast.program) = List.length p.blocks >= 2 in
  let small = Shrink.minimize ~still_fails:feature g.prog in
  check "feature preserved" true (feature small);
  check "admissible" true (Shrink.admissible small);
  (* when the predicate does not hold, minimize is the identity *)
  let id = Shrink.minimize ~still_fails:(fun _ -> false) g.prog in
  check "no-op on passing program" true
    (Tpal.Ast.equal_program id g.prog)

(* --- corpus --- *)

(* The test binary runs from its build directory; locate the corpus
   relative to the dune workspace root (same idiom as suite_assets). *)
let corpus_dir () : string option =
  List.find_opt Sys.file_exists
    [
      "corpus";
      "test/corpus";
      "../test/corpus";
      "../../../test/corpus";
      "../../../../test/corpus";
    ]

let test_corpus_replay () =
  match corpus_dir () with
  | None -> () (* corpus not visible from this cwd: skip silently *)
  | Some dir ->
      let entries = Corpus.load_dir dir in
      check "at least 5 committed reproducers" true
        (List.length entries >= 5);
      List.iter
        (fun (path, e) ->
          match e with
          | Error msg -> Alcotest.failf "%s: %s" path msg
          | Ok (e : Corpus.entry) -> (
              check (path ^ " checks") true (Tpal.Check.errors e.prog = []);
              (* chaos-oracle reproducers replay with the crash-schedule
                 battery switched on, so they guard the recovery layer *)
              let has_prefix p o =
                String.length o >= String.length p
                && String.sub o 0 (String.length p) = p
              in
              let cfg =
                if has_prefix "chaos-par" e.oracle then chaos_par_cfg
                else if has_prefix "chaos" e.oracle then chaos_cfg
                else quick_cfg
              in
              (* ~seed pins the chaos-par fault plan to the one the
                 reproducer was shrunk under *)
              match Diff.check ~cfg ~seed:e.seed e.prog ~outputs:e.outputs with
              | [] -> ()
              | ds ->
                  Alcotest.failf "%s (guards oracle %s): %s" path e.oracle
                    (pp_divs ds)))
        entries

let test_corpus_round_trip () =
  let g = Gen.generate ~seed:11 in
  let e =
    { Corpus.seed = 11; oracle = "eval-heart"; outputs = g.outputs;
      prog = g.prog }
  in
  match Corpus.load_string (Corpus.render e) with
  | Error msg -> Alcotest.failf "reload: %s" msg
  | Ok e' ->
      check_int "seed survives" e.seed e'.seed;
      Alcotest.(check string) "oracle survives" e.oracle e'.oracle;
      check "outputs survive" true (e.outputs = e'.outputs);
      check "program survives" true (Tpal.Ast.equal_program e.prog e'.prog)

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "differential battery, 30 seeds" `Quick
        test_battery_quick;
      Alcotest.test_case "full battery, 5 seeds" `Quick test_battery_full_cfg;
      Alcotest.test_case "chaos battery, 10 seeds" `Quick test_battery_chaos;
      Alcotest.test_case "chaos-par battery, 15 seeds" `Quick
        test_battery_chaos_par;
      Alcotest.test_case "generator is seed-deterministic" `Quick
        test_generator_deterministic;
      QCheck_alcotest.to_alcotest prop_generated_valid;
      Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
      Alcotest.test_case "shrinker respects predicate" `Quick
        test_shrinker_respects_predicate;
      Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
      Alcotest.test_case "corpus metadata round-trip" `Quick
        test_corpus_round_trip;
    ] )
