(** Executable task state over {!Par_ir} programs, shared by the three
    scheduling modes:

    - {!mode.Serial}: run everything in place; no decomposition.
    - {!mode.Cilk}: {e eager initial decomposition} — every [Spawn2]
      immediately creates a task (paying [tau_cilk]), and every loop is
      lazily binary-split down to Cilk Plus's [8·P]-chunk grain
      (capped at 2048 iterations), each split creating a task.
    - {!mode.Tpal}: {e serial by default, recurrent decomposition} —
      nothing splits on its own; the engine calls {!try_promote} on
      heartbeats, which splits the {e outermost} promotable construct
      (half the remaining iterations of the outermost loop, or the
      oldest advertised [Spawn2] branch), paying [tau_promote].

    A task's pending computation is a stack of frames, innermost first;
    this mirrors the TPAL call stack with its promotion-ready marks.

    Fork-join dependencies are tracked precisely: every frame that has
    given work away carries a {!sync} counting outstanding children,
    and a task reaching such a frame with children outstanding
    {e blocks} (the join) until the last child signals it — so phase
    barriers (e.g. floyd-warshall's sequential [k] phases) and nested
    joins have faithful timing. *)

type mode = Serial | Cilk | Tpal

(** Join bookkeeping for a frame that spawned or promoted children. *)
type sync = { mutable pending : int; mutable waiter : task option }

and frame =
  | F_leaf of { mutable remaining : int }
  | F_for of {
      mutable i : int;
      mutable hi : int;
      cost : Par_ir.cost;
      grain : int;  (** Cilk split grain; ignored by Serial/Tpal *)
      mutable sync : sync option;
    }
  | F_nest of {
      mutable i : int;
      mutable hi : int;
      body : int -> Par_ir.t;
      grain : int;
      mutable sync : sync option;
    }
  | F_seq of { mutable rest : Par_ir.t list }
  | F_spawn of {
      mutable second : (unit -> Par_ir.t) option;
          (** the advertised (promotable) second branch; [None] once
              taken inline or given to a child task *)
      mutable sync : sync option;
    }

and task = {
  id : int;  (** stable identity, for tracing and diagnostics *)
  mutable stack : frame list;
  mutable on_finish : sync option;
      (** the parent frame's join to signal when this task completes *)
  completed : bool ref;
      (** one-shot completion latch {e shared by every incarnation} of
          the same logical task: after a crash or stall the supervisor
          may re-execute a task from its last checkpoint while a
          revived core races the original copy to completion — the
          first incarnation to finish flips the latch, and a duplicate
          completion is a no-op instead of a double-join *)
}

(* Task ids are allocated from a global counter so every task created
   during a run — eager Cilk spawns, heartbeat promotions, the root —
   is distinguishable in traces.  [Engine.run] resets the counter per
   run, keeping ids (and hence traces) deterministic. *)
let id_counter = ref 0

let fresh_id () : int =
  let id = !id_counter in
  incr id_counter;
  id

let reset_ids () : unit = id_counter := 0

type cfg = {
  mode : mode;
  params : Params.t;
  promote_innermost : bool;
      (** ablation switch: promote the innermost (most recent)
          promotable construct instead of the outermost — violating
          the policy heartbeat scheduling's bounds require (§2.3) *)
  dilation_pct : int;
      (** dilation of useful work, percent (100 = none), modelling the
          scheduler-specific cost of the loop body itself: reducer
          accesses and blocked optimisations for Cilk (Figure 6),
          nop padding / auxiliary accumulators for TPAL (Figure 8).
          The Serial baseline always runs undilated. *)
}

let make_cfg ?(dilation_pct = 100) ?(promote_innermost = false) (mode : mode)
    (params : Params.t) : cfg =
  { mode; params; promote_innermost; dilation_pct }

(* Cilk Plus's documented cilk_for grain: min(2048, max(1, n / (8P))). *)
let cilk_grain (cfg : cfg) (n : int) : int =
  min 2048 (max 1 (n / (8 * max 1 cfg.params.procs)))

let scale_cost (cfg : cfg) (c : int) : int =
  if cfg.mode <> Serial && cfg.dilation_pct <> 100 then
    max 1 (c * cfg.dilation_pct / 100)
  else max 1 c

(** The result of running a task for (about) a budget of cycles. *)
type outcome = {
  consumed : int;  (** total cycles spent (work + overhead) *)
  work_done : int;  (** dilated (as-executed) work cycles *)
  raw_done : int;
      (** undilated work cycles — the algorithm's memory traffic, which
          the engine's bandwidth ceiling binds (dilation is extra
          compute, not extra traffic) *)
  overhead_done : int;
  finished : bool;
  blocked : sync option;
      (** the task reached a join with children outstanding; it must
          be parked until the sync's last child signals it *)
  spawned : task list;  (** tasks created by Cilk decomposition *)
}

(* Obtain (creating if necessary) the sync of a frame about to give
   work to a child. *)
let frame_sync (f : frame) : sync =
  let get s set =
    match s with
    | Some s -> s
    | None ->
        let s = { pending = 0; waiter = None } in
        set (Some s);
        s
  in
  match f with
  | F_for r -> get r.sync (fun s -> r.sync <- s)
  | F_nest r -> get r.sync (fun s -> r.sync <- s)
  | F_spawn r -> get r.sync (fun s -> r.sync <- s)
  | F_leaf _ | F_seq _ -> invalid_arg "frame_sync: frame cannot fork"

let child_of (f : frame) (stack : frame list) : task =
  let s = frame_sync f in
  s.pending <- s.pending + 1;
  { id = fresh_id (); stack; on_finish = Some s; completed = ref false }

(* Push the frames for an IR node on [task], charging mode-specific
   costs via [charge] and emitting eagerly spawned tasks via [emit]. *)
let rec expand (cfg : cfg) (task : task) (emit : task -> unit)
    (charge : int -> unit) (t : Par_ir.t) : unit =
  match t with
  | Par_ir.Leaf c ->
      task.stack <- F_leaf { remaining = scale_cost cfg c } :: task.stack
  | Par_ir.Seq l -> task.stack <- F_seq { rest = l } :: task.stack
  | Par_ir.For { n; cost } ->
      if n > 0 then
        task.stack <-
          F_for { i = 0; hi = n; cost; grain = cilk_grain cfg n; sync = None }
          :: task.stack
  | Par_ir.For_nested { n; body } ->
      if n > 0 then
        task.stack <-
          F_nest { i = 0; hi = n; body; grain = cilk_grain cfg n; sync = None }
          :: task.stack
  | Par_ir.Spawn2 (a, b) -> (
      match cfg.mode with
      | Cilk ->
          (* eager decomposition: the second branch becomes a task
             immediately (forced one level only — its own spawns unfold
             when it runs); the parent will join at this frame *)
          charge (cfg.params.tau_cilk + cfg.params.join_cost);
          let f = F_spawn { second = None; sync = None } in
          task.stack <- f :: task.stack;
          emit (child_of f [ F_seq { rest = [ b () ] } ]);
          expand cfg task emit charge (a ())
      | Serial ->
          task.stack <- F_spawn { second = Some b; sync = None } :: task.stack;
          expand cfg task emit charge (a ())
      | Tpal ->
          (* serial by default: advertise the second branch with a
             promotion-ready mark (push/pop cost, §4.4) *)
          charge cfg.params.mark_cost;
          task.stack <- F_spawn { second = Some b; sync = None } :: task.stack;
          expand cfg task emit charge (a ()))

(** [of_ir cfg ir] is a fresh root task poised to run [ir]; expansion
    is deferred to the first {!run_for} so its costs are accounted. *)
let of_ir (_cfg : cfg) (ir : Par_ir.t) : task =
  { id = fresh_id ();
    stack = [ F_seq { rest = [ ir ] } ];
    on_finish = None;
    completed = ref false }

(** [snapshot task] — a lease checkpoint: a deep copy of the task's
    frame stack whose mutable per-frame state (loop indices, leaf
    budgets, advertised branches) is private to the copy, while the
    fork-join plumbing stays {e shared}: every [sync] field aliases the
    original record (children spawned by either incarnation signal the
    same join), [on_finish] aliases the parent's sync, and [completed]
    is the same latch, so the logical task completes exactly once no
    matter how many incarnations run.  The copy keeps the original's
    [id] — it is the same logical task, and reusing the id keeps task
    numbering identical between faulted and fault-free runs. *)
let snapshot (task : task) : task =
  let copy_frame = function
    | F_leaf f -> F_leaf { remaining = f.remaining }
    | F_for f ->
        F_for { i = f.i; hi = f.hi; cost = f.cost; grain = f.grain;
                sync = f.sync }
    | F_nest f ->
        F_nest { i = f.i; hi = f.hi; body = f.body; grain = f.grain;
                 sync = f.sync }
    | F_seq f -> F_seq { rest = f.rest }
    | F_spawn f -> F_spawn { second = f.second; sync = f.sync }
  in
  { id = task.id;
    stack = List.map copy_frame task.stack;
    on_finish = task.on_finish;
    completed = task.completed }

let is_finished (task : task) : bool = task.stack = []

(* A frame is exhausted but may still have outstanding children. *)
let join_state (s : sync option) : [ `Free | `Must_wait of sync ] =
  match s with
  | Some s when s.pending > 0 -> `Must_wait s
  | Some _ | None -> `Free

(** [run_for cfg task ~budget] advances [task] by roughly [budget]
    cycles (it may overshoot by one action).  It stops early when it
    spawns tasks (they must become stealable immediately) or blocks at
    a join.  Always makes progress when the task is runnable. *)
let run_for (cfg : cfg) (task : task) ~(budget : int) : outcome =
  let work_done = ref 0 in
  let raw_done = ref 0 in
  let overhead_done = ref 0 in
  let unscale c = c * 100 / cfg.dilation_pct in
  let spawned = ref [] in
  let blocked = ref None in
  let emit t = spawned := t :: !spawned in
  let charge c = overhead_done := !overhead_done + c in
  let consumed () = !work_done + !overhead_done in
  let continue = ref true in
  while
    !continue && consumed () < budget && !spawned = [] && !blocked = None
  do
    match task.stack with
    | [] -> continue := false
    | F_leaf f :: rest ->
        let take = min f.remaining (max 1 (budget - consumed ())) in
        f.remaining <- f.remaining - take;
        work_done := !work_done + take;
        raw_done := !raw_done + (if cfg.mode = Serial then take else unscale take);
        if f.remaining = 0 then task.stack <- rest
    | F_seq f :: rest -> (
        match f.rest with
        | [] -> task.stack <- rest
        | t :: more ->
            f.rest <- more;
            expand cfg task emit charge t)
    | (F_for f as fr) :: rest ->
        if f.i >= f.hi then begin
          match join_state f.sync with
          | `Must_wait s -> blocked := Some s
          | `Free -> task.stack <- rest
        end
        else if cfg.mode = Cilk && f.hi - f.i > f.grain then begin
          (* lazy binary splitting: the upper half becomes a task *)
          let mid = f.i + ((f.hi - f.i + 1) / 2) in
          charge cfg.params.tau_cilk;
          emit
            (child_of fr
               [ F_for
                   { i = mid; hi = f.hi; cost = f.cost; grain = f.grain;
                     sync = None } ]);
          f.hi <- mid
        end
        else begin
          match f.cost with
          | Par_ir.Const k ->
              let raw = max 1 k in
              let k = scale_cost cfg k in
              let want = max 1 ((budget - consumed () + k - 1) / k) in
              let iters = min (f.hi - f.i) want in
              f.i <- f.i + iters;
              work_done := !work_done + (iters * k);
              raw_done := !raw_done + (iters * raw)
          | Par_ir.Fn cost_fn ->
              let raw = max 1 (cost_fn f.i) in
              let c = scale_cost cfg (cost_fn f.i) in
              f.i <- f.i + 1;
              work_done := !work_done + c;
              raw_done := !raw_done + raw
        end
    | (F_nest f as fr) :: rest ->
        if f.i >= f.hi then begin
          match join_state f.sync with
          | `Must_wait s -> blocked := Some s
          | `Free -> task.stack <- rest
        end
        else if cfg.mode = Cilk && f.hi - f.i > f.grain then begin
          let mid = f.i + ((f.hi - f.i + 1) / 2) in
          charge cfg.params.tau_cilk;
          emit
            (child_of fr
               [ F_nest
                   { i = mid; hi = f.hi; body = f.body; grain = f.grain;
                     sync = None } ]);
          f.hi <- mid
        end
        else begin
          let body = f.body f.i in
          f.i <- f.i + 1;
          expand cfg task emit charge body
        end
    | F_spawn f :: rest -> (
        (* reached only after the first branch finished *)
        match f.second with
        | Some b ->
            f.second <- None;
            expand cfg task emit charge (b ())
        | None -> (
            match join_state f.sync with
            | `Must_wait s -> blocked := Some s
            | `Free -> task.stack <- rest))
  done;
  {
    consumed = consumed ();
    work_done = !work_done;
    raw_done = !raw_done;
    overhead_done = !overhead_done;
    finished = is_finished task;
    blocked = !blocked;
    spawned = List.rev !spawned;
  }

(** [try_promote cfg task] implements TPAL's heartbeat promotion: find
    the {e outermost} promotable construct on the task's stack and
    split it once.  Returns the newly created task, or [None] when the
    task holds no latent parallelism (the handler aborts). *)
let try_promote (cfg : cfg) (task : task) : task option =
  (* Scan from the bottom of the stack (outermost context first) —
     heartbeat scheduling's outermost-first policy — unless the
     innermost-first ablation is on. *)
  let rec scan (frames : frame list) : task option =
    match frames with
    | [] -> None
    | f :: above -> (
        match f with
        | F_for r when r.hi - r.i >= 2 ->
            let mid = r.i + ((r.hi - r.i + 1) / 2) in
            let child =
              child_of f
                [ F_for
                    { i = mid; hi = r.hi; cost = r.cost; grain = r.grain;
                      sync = None } ]
            in
            r.hi <- mid;
            Some child
        | F_nest r when r.hi - r.i >= 2 ->
            let mid = r.i + ((r.hi - r.i + 1) / 2) in
            let child =
              child_of f
                [ F_nest
                    { i = mid; hi = r.hi; body = r.body; grain = r.grain;
                      sync = None } ]
            in
            r.hi <- mid;
            Some child
        | F_spawn r when r.second <> None ->
            let b = Option.get r.second in
            r.second <- None;
            Some (child_of f [ F_seq { rest = [ b () ] } ])
        | F_leaf _ | F_for _ | F_nest _ | F_seq _ | F_spawn _ -> scan above)
  in
  scan
    (if cfg.promote_innermost then task.stack else List.rev task.stack)
