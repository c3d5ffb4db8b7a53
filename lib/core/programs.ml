(** The paper's example programs, parsed from their one source, the
    shipped [examples/asm/*.tpal] files (embedded at build time by this
    library's dune rule).  The comments in those files explain the
    blocks.

    - {!prod} — the running example (Figures 2 and 32–34): [c = a * b]
      by repeated addition, with a heartbeat-promotable loop.
    - {!pow} — loop-based nested parallelism (Figures 16–19):
      [f = d{^e}] with [prod] nested as the inner loop and the
      promote-the-outermost-parallelism policy.
    - {!fib} — recursive parallelism over an explicit call stack with
      promotion-ready marks (Figures 20, 22–23).
    - {!prod_reduced} — [prod] in the reduced block style of
      Appendix D.5, for the style ablation.

    Transcription notes (deviations from the paper's figures, each
    forced by a latent assumption of the figures that the abstract
    machine makes explicit):

    {b fib.} (1) The promoted frame's continuation is overwritten
    through the interior pointer: [mem[sp-top + 0] := joink] — the
    figure prints [mem[sp + 0]], which would clobber the {e newest}
    frame instead of the promoted (oldest) one.  (2) The join-record
    identifier is stashed in the promoted frame (slot 2, whose stashed
    argument was just consumed) and reloaded by [joink]; keeping it
    only in the [jr] register is unsound because later promotions
    overwrite [jr] before earlier [joink]s run.  For the same reason
    [joink] frees the frame with [sp := sp + 3] — when control reaches
    a [joink], [sp] points at the promoted frame, whereas the [sp-top]
    register may have been clobbered by a later promotion.  (3) The
    child task's fresh stack gets a full 3-cell frame so that its
    [joink] can reload the record from slot 2.

    {b pow.} The figures reuse the label [loop-try-promote] both for
    prod's original inner handler and for the outer-first wrapper that
    shadows it; here the wrappers are named [loop-outer-first] /
    [loop-par-outer-first] and the original prod handlers keep their
    names, with [pabort] wired so that a failed outer attempt falls
    back to the matching inner handler — the behaviour §B.1
    prescribes. *)

let load (src : string) : Ast.program = Check.check_exn (Parser.parse src)

(** [c = a * b]: seed [a] and [b]; [c] at halt. *)
let prod : Ast.program = load Asm_sources.prod

(** [f = d{^e}]: seed [d] and [e]; [f] at halt. *)
let pow : Ast.program = load Asm_sources.pow

(** [f = fib(n)]: seed [n]; [f] at halt. *)
let fib : Ast.program = load Asm_sources.fib

(** [c = a * b] in the reduced style: seed [a] and [b]; [c] at halt. *)
let prod_reduced : Ast.program = load Asm_sources.prod_reduced

(* runs [prog] with integer [seeds] and reads integer register [out] *)
let run ?(options = Eval.default_options) (prog : Ast.program)
    (seeds : (string * int) list) (out : string) :
    (int * Eval.finished, Machine_error.t) result =
  let seeds = List.map (fun (r, n) -> (r, Value.Vint n)) seeds in
  match Eval.run_seeded ~options prog seeds with
  | Error e -> Error e
  | Ok fin -> (
      match Regfile.find_opt out fin.task.regs with
      | Some (Value.Vint v) -> Ok (v, fin)
      | _ -> Error (Machine_error.Unbound_register out))

(** [run_prod ?options ~a ~b ()] runs {!prod} and extracts [c]. *)
let run_prod ?options ~(a : int) ~(b : int) () =
  run ?options prod [ ("a", a); ("b", b) ] "c"

(** [run_pow ?options ~d ~e ()] runs {!pow} and extracts [f]. *)
let run_pow ?options ~(d : int) ~(e : int) () =
  run ?options pow [ ("d", d); ("e", e) ] "f"

(** [run_fib ?options ~n ()] runs {!fib} and extracts [f]. *)
let run_fib ?options ~(n : int) () = run ?options fib [ ("n", n) ] "f"

(** [run_prod_reduced ?options ~a ~b ()] runs {!prod_reduced} and
    extracts [c]. *)
let run_prod_reduced ?options ~(a : int) ~(b : int) () =
  run ?options prod_reduced [ ("a", a); ("b", b) ] "c"

(** Reference implementations used by tests. *)
let fib_spec : int -> int =
  let rec go n = if n < 2 then n else go (n - 1) + go (n - 2) in
  go

let pow_spec (d : int) (e : int) : int =
  let rec go acc e = if e = 0 then acc else go (acc * d) (e - 1) in
  go 1 e
