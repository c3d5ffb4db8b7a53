(** Pretty-printer for TPAL assembly, inverse of {!Parser}:
    [Parser.parse (Printer.program_to_string p)] yields [p] back
    (up to the register/label resolution of bare identifiers), which
    the test suite checks by property. *)

let binop_to_string : Ast.binop -> string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "&"
  | Ast.Or -> "|"
  | Ast.Xor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"

let operand_to_string : Ast.operand -> string = function
  | Ast.Reg r -> r
  | Ast.Lab l -> l
  | Ast.Int n -> string_of_int n

let instr_to_string : Ast.instr -> string = function
  | Ast.Mov (r, v) -> Printf.sprintf "%s := %s" r (operand_to_string v)
  | Ast.Binop (r, op, v1, v2) ->
      Printf.sprintf "%s := %s %s %s" r (operand_to_string v1)
        (binop_to_string op) (operand_to_string v2)
  | Ast.If_jump (r, v) -> Printf.sprintf "if-jump %s, %s" r (operand_to_string v)
  | Ast.Jralloc (r, l) -> Printf.sprintf "%s := jralloc %s" r l
  | Ast.Fork (jr, v) -> Printf.sprintf "fork %s, %s" jr (operand_to_string v)
  | Ast.Snew r -> Printf.sprintf "%s := snew" r
  | Ast.Salloc (r, n) -> Printf.sprintf "salloc %s, %d" r n
  | Ast.Sfree (r, n) -> Printf.sprintf "sfree %s, %d" r n
  | Ast.Load (rd, r, n) -> Printf.sprintf "%s := mem[%s + %d]" rd r n
  | Ast.Store (r, n, v) ->
      Printf.sprintf "mem[%s + %d] := %s" r n (operand_to_string v)
  | Ast.Prmpush (r, n) -> Printf.sprintf "prmpush mem[%s + %d]" r n
  | Ast.Prmpop (r, n) -> Printf.sprintf "prmpop mem[%s + %d]" r n
  | Ast.Prmempty (rd, r) -> Printf.sprintf "%s := prmempty %s" rd r
  | Ast.Prmsplit (rs, rp) -> Printf.sprintf "prmsplit %s, %s" rs rp

let term_to_string : Ast.terminator -> string = function
  | Ast.Jump v -> "jump " ^ operand_to_string v
  | Ast.Halt -> "halt"
  | Ast.Join r -> "join " ^ r

let annot_to_string : Ast.annot -> string = function
  | Ast.Plain -> "[.]"
  | Ast.Prppt l -> Printf.sprintf "[prppt %s]" l
  | Ast.Jtppt (jp, dr, l) ->
      let policy = match jp with Ast.Assoc -> "assoc" | Ast.Assoc_comm -> "assoc-comm" in
      let pairs =
        String.concat ", "
          (List.map (fun (s, t) -> Printf.sprintf "%s -> %s" s t) dr)
      in
      Printf.sprintf "[jtppt %s; {%s}; %s]" policy pairs l

let block_to_buffer (buf : Buffer.t) (label : Ast.label) (b : Ast.block) : unit
    =
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" label (annot_to_string b.annot));
  List.iter
    (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n"))
    b.body;
  Buffer.add_string buf ("  " ^ term_to_string b.term ^ "\n")

(** [program_to_string p] renders [p] in the concrete syntax accepted
    by {!Parser.parse}.  The entry block is printed first (programs
    constructed with the entry not in front are reordered, preserving
    the relative order of the rest). *)
let program_to_string (p : Ast.program) : string =
  let buf = Buffer.create 1024 in
  let entry_first =
    let entry, rest =
      List.partition (fun (l, _) -> String.equal l p.entry) p.blocks
    in
    entry @ rest
  in
  List.iteri
    (fun i (l, b) ->
      if i > 0 then Buffer.add_char buf '\n';
      block_to_buffer buf l b)
    entry_first;
  Buffer.contents buf
