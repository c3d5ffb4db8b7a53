(** Rollforward compilation (§3.2).

    The paper's implementation cannot rely on OS signals landing at
    promotion-ready program points, so it compiles every parallel
    region twice:

    - the {e original} version, identical to the input — it never
      triggers a heartbeat on its own;
    - the {e rollforward} version, in which "any instruction that
      jumps to a promotion-ready program point jumps instead to the
      corresponding handler function" — so once control is in it, the
      next promotion-ready point is guaranteed to divert.

    A signal handler then services an interrupt by looking the
    interrupted program counter up in the original→rollforward label
    map and replacing it; the program keeps executing (rolls forward)
    and invokes the promotion handler at the next promotion-ready
    point, after which control resumes in the original version (the
    paper's handler blocks jump back to original labels).

    This module implements that transformation at the TPAL level:
    {!transform} produces the combined two-version program plus the
    label map, and {!redirect} performs the signal handler's
    program-counter replacement on a live {!Task.t}. *)

type t = {
  program : Ast.program;
      (** the original blocks plus their rollforward copies; entry is
          the original entry *)
  map : (Ast.label * Ast.label) list;
      (** original label → rollforward label, one entry per block of
          the input (the table "loaded once, by the binary load
          routine") *)
}

(** Label of the rollforward copy of [l]. *)
let rf_label (l : Ast.label) : Ast.label = "rf$" ^ l

let handler_of (heap : Heap.t) (l : Ast.label) : Ast.label option =
  match Heap.find_opt l heap with
  | Some { annot = Ast.Prppt h; _ } -> Some h
  | _ -> None

(* Rewrite a control-flow target for the rollforward version:
   - a promotion-ready block becomes its handler (in the original
     namespace — the handler performs the promotion and continues in
     original code);
   - any other known block becomes its rollforward copy (keep rolling
     until a promotion-ready point);
   - unknown labels (e.g. data labels) are left alone. *)
let rf_target (heap : Heap.t) (l : Ast.label) : Ast.label =
  match handler_of heap l with
  | Some h -> h
  | None -> if Heap.mem l heap then rf_label l else l

let rf_operand (heap : Heap.t) (v : Ast.operand) : Ast.operand =
  match v with
  | Ast.Lab l -> Ast.Lab (rf_target heap l)
  | Ast.Reg _ | Ast.Int _ -> v

let rf_instr (heap : Heap.t) (i : Ast.instr) : Ast.instr =
  match i with
  | Ast.If_jump (r, v) -> Ast.If_jump (r, rf_operand heap v)
  | Ast.Fork (jr, v) ->
      (* a forked child starts fresh (⋄ = 0): it targets the original
         version, not the rollforward one *)
      Ast.Fork (jr, v)
  | Ast.Mov (r, Ast.Lab l) when Heap.mem l heap ->
      (* label materialisations (continuation registers) stay in the
         original namespace: stored continuations are consumed after
         the pending interrupt has been serviced *)
      Ast.Mov (r, Ast.Lab l)
  | Ast.Jralloc _ | Ast.Mov _ | Ast.Binop _ | Ast.Snew _ | Ast.Salloc _
  | Ast.Sfree _ | Ast.Load _ | Ast.Store _ | Ast.Prmpush _ | Ast.Prmpop _
  | Ast.Prmempty _ | Ast.Prmsplit _ ->
      i

let rf_term (heap : Heap.t) (t : Ast.terminator) : Ast.terminator =
  match t with
  | Ast.Jump (Ast.Lab l) -> Ast.Jump (Ast.Lab (rf_target heap l))
  | Ast.Jump _ | Ast.Halt | Ast.Join _ -> t

(* The rollforward copy of a block: same instructions with redirected
   control flow; the promotion-ready annotation is dropped (diversion
   is now explicit in the control flow) and join-target annotations
   are kept (join resolution is scheduler-level and shared). *)
let rf_block (heap : Heap.t) (b : Ast.block) : Ast.block =
  let annot =
    match b.annot with
    | Ast.Prppt _ -> Ast.Plain
    | (Ast.Plain | Ast.Jtppt _) as a -> a
  in
  {
    Ast.annot;
    body = List.map (rf_instr heap) b.body;
    term = rf_term heap b.term;
  }

(** [transform p] compiles [p] into its two-version form. *)
let transform (p : Ast.program) : t =
  let heap = Heap.of_program p in
  let rf_blocks =
    List.map (fun (l, b) -> (rf_label l, rf_block heap b)) p.blocks
  in
  {
    program = { p with blocks = p.blocks @ rf_blocks };
    map = List.map (fun (l, _) -> (l, rf_label l)) p.blocks;
  }

(** [redirect t map task] is the signal handler's action on an
    interrupted task: if the program counter matches a key in the
    table, replace it by the corresponding rollforward entry
    (preserving the offset — the two versions "align perfectly up to
    instruction labels").  Returns the task unchanged when the counter
    is outside the mapped region (e.g. already in a handler). *)
let redirect (t : t) (task : Task.t) : (Task.t, Machine_error.t) result =
  match List.assoc_opt task.pc.label t.map with
  | None -> Ok task
  | Some rf -> (
      match Heap.find_opt rf (Heap.of_program t.program) with
      | None -> Error (Machine_error.Unbound_label rf)
      | Some block ->
          let rec drop n l =
            if n <= 0 then Some l
            else match l with [] -> None | _ :: tl -> drop (n - 1) tl
          in
          (match drop task.pc.offset block.body with
          | Some rest ->
              Ok
                { task with
                  pc = { Task.label = rf; offset = task.pc.offset };
                  code = { rest; term = block.term } }
          | None ->
              Error
                (Machine_error.Pc_out_of_range
                   { label = rf; offset = task.pc.offset })))
