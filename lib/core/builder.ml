(** Combinator DSL for constructing TPAL programs in OCaml.

    Example, the sequential skeleton of the paper's running example:
    {[
      let open Builder in
      program ~entry:"prod"
        [ block "prod" [ mov "r" (int 0) ] (jump "loop");
          block "loop" ~annot:(prppt "loop-try-promote")
            [ if_jump "a" (lab "exit");
              binop "r" Ast.Add (reg "r") (reg "b");
              binop "a" Ast.Sub (reg "a") (int 1) ]
            (jump "loop");
          ... ]
    ]} *)

(* Operands *)
let reg (r : string) : Ast.operand = Ast.Reg r
let lab (l : string) : Ast.operand = Ast.Lab l
let int (n : int) : Ast.operand = Ast.Int n

(* Instructions *)
let mov (r : string) (v : Ast.operand) : Ast.instr = Ast.Mov (r, v)

let binop (r : string) (op : Ast.binop) (v1 : Ast.operand) (v2 : Ast.operand) :
    Ast.instr =
  Ast.Binop (r, op, v1, v2)

let add r v1 v2 = binop r Ast.Add v1 v2
let sub r v1 v2 = binop r Ast.Sub v1 v2
let mul r v1 v2 = binop r Ast.Mul v1 v2
let div r v1 v2 = binop r Ast.Div v1 v2
let modulo r v1 v2 = binop r Ast.Mod v1 v2
let lt r v1 v2 = binop r Ast.Lt v1 v2
let if_jump (r : string) (v : Ast.operand) : Ast.instr = Ast.If_jump (r, v)
let jralloc (r : string) (cont : string) : Ast.instr = Ast.Jralloc (r, cont)
let fork (jr : string) (v : Ast.operand) : Ast.instr = Ast.Fork (jr, v)
let snew (r : string) : Ast.instr = Ast.Snew r
let salloc (r : string) (n : int) : Ast.instr = Ast.Salloc (r, n)
let sfree (r : string) (n : int) : Ast.instr = Ast.Sfree (r, n)
let load (rd : string) (r : string) (n : int) : Ast.instr = Ast.Load (rd, r, n)

let store (r : string) (n : int) (v : Ast.operand) : Ast.instr =
  Ast.Store (r, n, v)

let prmpush (r : string) (n : int) : Ast.instr = Ast.Prmpush (r, n)
let prmpop (r : string) (n : int) : Ast.instr = Ast.Prmpop (r, n)
let prmempty (rd : string) (r : string) : Ast.instr = Ast.Prmempty (rd, r)
let prmsplit (rs : string) (rp : string) : Ast.instr = Ast.Prmsplit (rs, rp)

(* Terminators *)
let jump (l : string) : Ast.terminator = Ast.Jump (Ast.Lab l)
let halt : Ast.terminator = Ast.Halt
let join (r : string) : Ast.terminator = Ast.Join r

(* Annotations *)
let prppt (handler : string) : Ast.annot = Ast.Prppt handler

let jtppt ?(policy = Ast.Assoc_comm) (renaming : (string * string) list)
    (comb : string) : Ast.annot =
  Ast.Jtppt (policy, renaming, comb)

(* Blocks and programs *)
let block ?(annot = Ast.Plain) (label : string) (body : Ast.instr list)
    (term : Ast.terminator) : Ast.label * Ast.block =
  (label, { Ast.annot; body; term })

(** [program ~entry blocks] assembles and statically checks the
    program; raises [Invalid_argument] on checker errors. *)
let program ~(entry : string) (blocks : (Ast.label * Ast.block) list) :
    Ast.program =
  Check.check_exn { Ast.entry; blocks }

(** [program_unchecked ~entry blocks] assembles without checking — for
    tests that need ill-formed programs. *)
let program_unchecked ~(entry : string)
    (blocks : (Ast.label * Ast.block) list) : Ast.program =
  { Ast.entry; blocks }
