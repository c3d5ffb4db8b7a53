(** The TPAL-on-a-real-scheduler interpreter core: {!Par_exec} runs it
    in a fresh {!Par.Runtime.run} session, {!Serve.Pool} inside its
    warm one.

    Interprets a TPAL program with the abstract machine's rules
    ({!Tpal.Step.step} for sequential transitions, the evaluator's
    promotion rule for handler diversion), but runs each fork's two
    branches through {!Par.Runtime.fork2}: the child branch is a
    {e latent} task that stays serial unless a real (wall-clock)
    heartbeat promotes it.

    Promotion of TPAL-level prppt handlers stays deterministic (driven
    by the ⋄ > ♥ rule with the given [options]), while the scheduling
    of the resulting forks is at the mercy of real time — which is the
    point: whatever interleaving and promotion schedule the runtime
    picks, the final register file must match the sequential
    evaluator's.  Both branches are complete when [fork2] returns, so
    the join/combine logic below is timing-independent.

    At more than one domain the two branches may really run
    concurrently, so the only shared mutable state — the fuel budget —
    is an [Atomic]; everything else the branches touch (task state,
    join maps, heaps) is functional and flows through the per-branch
    results. *)

open Tpal

exception Stuck of Machine_error.t

let ok = function Ok v -> v | Error e -> raise (Stuck e)

type stop = Halted | Blocked of int

let enter_fresh (t : Task.t) (label : Ast.label) : Task.t =
  let block = ok (Heap.find label t.heap) in
  Task.enter label block ~cycles:0 ~heap:t.heap ~regs:t.regs

let join_id (jr : Ast.reg) (regs : Regfile.t) ~(context : string) : int =
  match ok (Regfile.find jr regs) with
  | Value.Vjoin j -> j
  | other ->
      raise
        (Stuck
           (Machine_error.Type_error
              { expected = "join-record"; got = Value.kind other; context }))

(** [interpret ~options p] runs [p] from its entry block with an
    empty register file, forking through {!Par.Runtime.fork2}.  Must be
    called from inside a {!Par.Runtime.run} session; raises {!Stuck}
    on any machine error (including a blocked top-level derivation). *)
let interpret ~(options : Eval.options) (p : Ast.program) : Task.t =
  let fuel = Atomic.make options.fuel in
  let rec drive (joins : Join.t) (task : Task.t) : Join.t * Task.t * stop =
    if Atomic.fetch_and_add fuel (-1) <= 0 then
      raise (Stuck (Machine_error.Fuel_exhausted { budget = options.fuel }));
    match Eval.promotion_ready options task with
    | Some handler -> drive joins (enter_fresh task handler)
    | None -> (
        match ok (Step.step task) with
        | Step.Stepped task' -> drive joins task'
        | Step.Halted task' -> (joins, task', Halted)
        | Step.Parallel (req, task) -> (
            match req with
            | Step.Req_jralloc { dst; cont } ->
                let id, joins' = Join.alloc cont joins in
                let rest = List.tl task.code.rest in
                let task' =
                  { task with
                    pc = { task.pc with offset = task.pc.offset + 1 };
                    cycles = task.cycles + 1;
                    regs = Regfile.set dst (Value.Vjoin id) task.regs;
                    code = { task.code with rest } }
                in
                drive joins' task'
            | Step.Req_join { jr } -> (
                let j = join_id jr task.regs ~context:("join " ^ jr) in
                let record = ok (Join.find j joins) in
                match record.status with
                | Join.Open -> (joins, task, Blocked j)
                | Join.Closed ->
                    let joins' = Join.remove j joins in
                    let block = ok (Heap.find record.cont task.heap) in
                    drive joins'
                      (Task.enter record.cont block ~cycles:task.cycles
                         ~heap:task.heap ~regs:task.regs))
            | Step.Req_fork { jr; target } -> (
                let j = join_id jr task.regs ~context:("fork " ^ jr) in
                let record = ok (Join.find j joins) in
                let joins0 =
                  Join.set j { record with status = Join.Open } joins
                in
                let rest = List.tl task.code.rest in
                let parent0 =
                  { task with
                    pc = { task.pc with offset = task.pc.offset + 1 };
                    cycles = 0;
                    code = { task.code with rest } }
                in
                let child_label, child_block =
                  ok (Heap.resolve task.heap task.regs target)
                in
                let child0 =
                  Task.enter child_label child_block ~cycles:0
                    ~heap:task.heap ~regs:task.regs
                in
                (* the real fork: the child thunk is advertised to
                   the heartbeat scheduler; both refs are filled by
                   the time fork2 returns, whether or not it was
                   promoted *)
                let r1 = ref None and r2 = ref None in
                Par.Runtime.fork2
                  (fun () -> r1 := Some (drive joins0 parent0))
                  (fun () -> r2 := Some (drive joins0 child0));
                let j1, t1, s1 = Option.get !r1 in
                match s1 with
                | Halted -> (j1, t1, Halted)
                | Blocked jb1 -> (
                    if jb1 <> j then
                      raise
                        (Stuck
                           (Machine_error.Join_misuse
                              { join = j;
                                reason =
                                  Printf.sprintf
                                    "parent branch joined on j%d instead"
                                    jb1 }));
                    let j2, t2, s2 = Option.get !r2 in
                    match s2 with
                    | Halted -> (j2, t2, Halted)
                    | Blocked jb2 ->
                        if jb2 <> j then
                          raise
                            (Stuck
                               (Machine_error.Join_misuse
                                  { join = j;
                                    reason =
                                      Printf.sprintf
                                        "child branch joined on j%d instead"
                                        jb2 }));
                        let dr =
                          match Heap.find_opt record.cont task.heap with
                          | Some { annot = Ast.Jtppt (_, dr, _); _ } -> dr
                          | Some _ ->
                              raise
                                (Stuck
                                   (Machine_error.Join_misuse
                                      { join = j;
                                        reason =
                                          "join continuation " ^ record.cont
                                          ^ " is not a join-target (jtppt) \
                                             block" }))
                          | None ->
                              raise
                                (Stuck
                                   (Machine_error.Unbound_label record.cont))
                        in
                        let comb_label =
                          match Heap.find_opt record.cont task.heap with
                          | Some { annot = Ast.Jtppt (_, _, l); _ } -> l
                          | _ -> assert false
                        in
                        let merged_regs = Regfile.merge t1.regs t2.regs dr in
                        let merged_heap = Heap.merge t1.heap t2.heap in
                        let merged_joins =
                          Join.set j record (Join.remove j (Join.merge j1 j2))
                        in
                        let comb_block =
                          ok (Heap.find comb_label merged_heap)
                        in
                        drive merged_joins
                          (Task.enter comb_label comb_block ~cycles:0
                             ~heap:merged_heap ~regs:merged_regs)))))
  in
  let task0 = ok (Task.initial p) in
  match drive Join.empty task0 with
  | _, task, Halted -> task
  | _, _, Blocked j ->
      raise
        (Stuck
           (Machine_error.Join_misuse
              { join = j; reason = "top-level derivation ended blocked" }))
