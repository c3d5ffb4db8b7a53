(** Differential oracle battery.

    [check] runs one program through every executor in the repo and
    returns the list of divergences (empty = all oracles hold):

    - {b eval-ref}: the sequential evaluator (♥ off) halts cleanly —
      the reference semantics everything else is compared against.
    - {b eval-heart}: evaluation with promotion enabled at several
      heartbeat thresholds produces identical outputs (promotion is a
      pure performance mechanism).
    - {b eval-swap}: [swap_joins] (the Assoc_comm role-swap freedom)
      leaves outputs unchanged on swap-safe programs.
    - {b eval-cost}: the cost summary obeys [work = instructions +
      τ·forks] and [span ≤ work].
    - {b round-trip}: [parse (print p) = p].
    - {b lower-*}: the {!Lower} shadow interpreter agrees with the
      evaluator on outputs, step counts, and the work/span of its
      [Par_ir] image matches the evaluator's cost summary.
    - {b sim-*}: the discrete-event simulator run on the lowered
      [Par_ir], across core counts and all three interrupt mechanisms:
      conservation of work, exact serial makespan, span/work lower
      bounds, a Brent-style upper bound, and bit-identical metrics on
      repeated runs (seed determinism).
    - {b fault-*}: the same simulations under injected beat faults
      (drops, duplicates, extra jitter) and spurious steal failures
      still complete, conserve work, and respect the lower bounds.
    - {b chaos-*}: simulations under a random crash/stall/slow-core
      schedule ({!Sim.Interrupts.random_schedule}): the run completes
      (no livelock) as long as one core survives, every IR cycle is
      executed at least once (re-execution may add more), the span and
      W/P lower bounds hold, the makespan stays within a Brent-style
      bound at the {e surviving} core count with an allowance for the
      lease-detection latency of each recovery, and repeated runs are
      bit-identical (seed determinism of the recovery machinery).
    - {b par-*}: the program executed on the real heartbeat runtime
      ({!Par_exec}: OCaml effects, wall-clock beats) at each
      configured domain count matches the reference outputs — at one
      domain serial with promotion, at more with forks really running
      concurrently, so this oracle is the battery's only check of
      cross-domain promotion, stealing, and join resolution. *)

open Tpal

type divergence = { oracle : string; detail : string }

type cfg = {
  cores : int list;
  mechs : Sim.Interrupts.mech list;
  faults : bool;
  chaos : bool;
      (** run the crash/stall/slow-core schedule battery (the recovery
          layer's oracle); off by default — it roughly doubles the
          simulator share of the battery *)
  par : int list;
      (** domain counts for the multi-domain runtime oracle; [[]]
          switches it off *)
  chaos_par : bool;
      (** run the {e real} runtime under a seeded {!Par.Chaos} fault
          plan (stalls / slow beats / dropped beats / injected raises)
          at 1/2/4 domains: timing faults must leave outputs
          bit-identical to the reference, an injected raise must
          surface as the typed {!Par.Chaos.Injected} — never a hang,
          a livelock, or a torn register file.  Off by default. *)
}

let default_cfg =
  {
    cores = [ 1; 4; 15 ];
    mechs = [ Sim.Interrupts.Ping_thread; Papi; Nautilus_ipi ];
    faults = true;
    chaos = false;
    par = [ 1; 2; 4 ];
    chaos_par = false;
  }

(** Simulator cycles charged per TPAL instruction when lowering.
    Chosen so that typical generated programs (hundreds to thousands
    of TPAL steps) span several heartbeat periods in the simulator. *)
let cpi = 300

(** Simulated ♥ for the battery.  Must comfortably exceed the most
    expensive interrupt handler (Papi's 8 100 cycles): a beat period
    shorter than the handler cost is a pathological regime in which
    cores can do nothing but service their growing beat backlog and
    tasks starve — a property of the configuration, not a scheduler
    bug, so the harness stays out of it. *)
let sim_heart_us = 8.0

let hearts = [ 5; 17; 101 ]

let ref_options : Eval.options =
  { heart = None; tau = 1; fuel = 5_000_000; swap_joins = false }

let with_heart h = { ref_options with heart = Some h }

(* ------------------------------------------------------------------ *)

let snapshot (outputs : Ast.reg list) (regs : Regfile.t) :
    (Ast.reg * Value.t option) list =
  List.map (fun r -> (r, Regfile.find_opt r regs)) outputs

let pp_value_opt ppf = function
  | None -> Fmt.string ppf "unbound"
  | Some v -> Value.pp ppf v

let compare_outputs ~(oracle : string) ~(what : string)
    (expected : (Ast.reg * Value.t option) list)
    (got : (Ast.reg * Value.t option) list) : divergence list =
  List.concat_map
    (fun ((r, ve), (_, vg)) ->
      let same =
        match (ve, vg) with
        | None, None -> true
        | Some a, Some b -> Value.equal a b
        | _ -> false
      in
      if same then []
      else
        [ { oracle;
            detail =
              Fmt.str "%s: %s = %a, expected %a" what r pp_value_opt vg
                pp_value_opt ve } ])
    (List.combine expected got)

let div oracle fmt = Fmt.kstr (fun detail -> { oracle; detail }) fmt

(* ------------------------------------------------------------------ *)
(* Simulator oracles for one configuration. *)

let sim_run ~(params : Sim.Params.t) ~(mech : Sim.Interrupts.mech)
    ~(faults : Sim.Interrupts.faults) ~(horizon : int) (ir : Sim.Par_ir.t) :
    (Sim.Metrics.t, divergence) result =
  let rcfg = Sim.Runnable.make_cfg Sim.Runnable.Tpal params in
  let config = Sim.Engine.make_config ~mech ~mem_intensity:0.3 ~faults rcfg in
  match Sim.Engine.run ~horizon config ir with
  | m -> Ok m
  | exception Sim.Engine.Horizon_exceeded t ->
      Error
        (div "sim-livelock" "P=%d %s: no completion by t=%d" params.procs
           (Sim.Interrupts.mech_name mech) t)

let check_sim_config ~(tag : string) ~(params : Sim.Params.t)
    ~(mech : Sim.Interrupts.mech) ~(faults : Sim.Interrupts.faults)
    ~(check_upper : bool) (ir : Sim.Par_ir.t) ~(work : int) ~(span : int) :
    divergence list =
  let p = max 1 params.procs in
  let horizon = (60 * work) + 50_000_000 in
  match sim_run ~params ~mech ~faults ~horizon ir with
  | Error d -> [ d ]
  | Ok m ->
      let where =
        Fmt.str "%sP=%d %s" tag params.procs (Sim.Interrupts.mech_name mech)
      in
      let ds = ref [] in
      let fail oracle fmt =
        Fmt.kstr (fun detail -> ds := { oracle; detail } :: !ds) fmt
      in
      if m.work <> work then
        fail (tag ^ "sim-work") "%s: work %d, IR work %d" where m.work work;
      if m.makespan * p < work then
        fail (tag ^ "sim-lower-bound") "%s: makespan %d < W/P = %d/%d" where
          m.makespan work p;
      if m.makespan < span then
        fail (tag ^ "sim-lower-bound") "%s: makespan %d < span %d" where
          m.makespan span;
      if check_upper then begin
        (* Brent-style bound with allowances for beat-granularity and
           per-beat scheduling costs; validated empirically over large
           fuzz batteries, it catches livelocks and gross scheduling
           anomalies rather than modest constant drift. *)
        let heart = Sim.Params.heart_cycles params in
        let per_beat =
          params.tau_promote + params.steal_cost + params.signal_handle
          + params.papi_handle
        in
        let beats = 2 + (m.makespan / max 1 heart) in
        let upper =
          (4 * ((work / p) + span)) + (4 * heart) + (beats * per_beat)
          + (64 * params.steal_retry)
        in
        if m.makespan > upper then
          fail (tag ^ "sim-upper-bound") "%s: makespan %d > bound %d (W=%d S=%d)"
            where m.makespan upper work span
      end;
      (* seed determinism: an identical second run *)
      (match sim_run ~params ~mech ~faults ~horizon ir with
      | Error d -> ds := d :: !ds
      | Ok m' ->
          if m <> m' then
            fail (tag ^ "sim-determinism") "%s: two runs with one seed differ"
              where);
      List.rev !ds

(* ------------------------------------------------------------------ *)
(* Chaos battery: a random crash/stall/slow-core schedule, checked with
   the recovery layer's oracles. *)

let check_chaos ~(params : Sim.Params.t) ~(mech : Sim.Interrupts.mech)
    (ir : Sim.Par_ir.t) ~(work : int) ~(span : int) : divergence list =
  let p = max 1 params.procs in
  let horizon = (60 * work) + 50_000_000 in
  (* the fault-free run fixes the time window the schedule is drawn
     over, so faults land while the program is actually running *)
  match sim_run ~params ~mech ~faults:Sim.Interrupts.no_faults ~horizon ir with
  | Error d -> [ d ]
  | Ok m0 ->
      let schedule =
        Sim.Interrupts.random_schedule ~seed:params.seed ~procs:p
          ~horizon:(max 1 m0.makespan)
      in
      let faults = { Sim.Interrupts.no_faults with schedule } in
      let heart = max 1 (Sim.Params.heart_cycles params) in
      (* mirrors the engine's lease TTL (lease_beats·♥ + two segment
         lengths) and sweep period *)
      let ttl = (max 1 params.lease_beats * heart) + 500_000 in
      let sweep = max 1 (max 1 params.sweep_beats * heart) in
      let stall_total =
        List.fold_left
          (fun acc (f : Sim.Interrupts.core_fault) ->
            match f.kind with Sim.Interrupts.Stall n -> acc + n | _ -> acc)
          0 schedule
      in
      let n_faults = List.length schedule in
      (* every injected fault may cost one lease-detection latency plus
         a full re-execution before the run can finish *)
      let chaos_horizon =
        horizon + stall_total + (n_faults * (ttl + (2 * sweep) + work))
      in
      let where =
        Fmt.str "chaos P=%d %s (%d faults)" p (Sim.Interrupts.mech_name mech)
          n_faults
      in
      (match sim_run ~params ~mech ~faults ~horizon:chaos_horizon ir with
      | Error d -> [ { d with oracle = "chaos-livelock" } ]
      | Ok m ->
          let ds = ref [] in
          let fail oracle fmt =
            Fmt.kstr (fun detail -> ds := { oracle; detail } :: !ds) fmt
          in
          (* conservation, weakened to ≥: re-execution legitimately
             repeats the cycles since a lost task's checkpoint, but
             nothing may be silently lost *)
          if m.work < work then
            fail "chaos-work-lost" "%s: work %d < IR work %d" where m.work
              work;
          if m.makespan * p < work then
            fail "chaos-lower-bound" "%s: makespan %d < W/P = %d/%d" where
              m.makespan work p;
          if m.makespan < span then
            fail "chaos-lower-bound" "%s: makespan %d < span %d" where
              m.makespan span;
          (* Brent-style upper bound at the surviving core count, with
             an allowance per recovery event: detection latency (TTL +
             sweeps) plus a serial re-execution of the lost task *)
          let surv = Sim.Metrics.surviving ~procs:p m in
          let per_beat =
            params.tau_promote + params.steal_cost + params.signal_handle
            + params.papi_handle
          in
          let beats = 2 + (m.makespan / heart) in
          let upper =
            (8 * ((work / surv) + span))
            + (4 * heart) + (beats * per_beat)
            + (64 * params.steal_retry)
            + stall_total
            + (m.tasks_reexecuted * (ttl + (2 * sweep) + work))
            + (m.cores_lost * (ttl + (2 * sweep)))
          in
          if m.makespan > upper then
            fail "chaos-upper-bound"
              "%s: makespan %d > bound %d (W=%d S=%d surv=%d reexec=%d)"
              where m.makespan upper work span surv m.tasks_reexecuted;
          (* the recovery machinery itself must be deterministic *)
          (match sim_run ~params ~mech ~faults ~horizon:chaos_horizon ir with
          | Error d -> ds := { d with oracle = "chaos-livelock" } :: !ds
          | Ok m' ->
              if m <> m' then
                fail "chaos-determinism"
                  "%s: two runs with one seed differ" where);
          List.rev !ds)

(* ------------------------------------------------------------------ *)
(* Chaos on the real runtime: a seeded Par.Chaos fault plan against the
   multi-domain executor, with the sequential evaluator as reference. *)

(** [check_chaos_par ~seed ~domains prog expected ~outputs]: for each
    domain count, draw a fault plan from [seed] and run [prog] on the
    real runtime under it.  Timing-only faults (stall / slow / drop)
    must leave the outputs bit-identical to the reference; a plan
    containing a [Raise] may legally surface the typed
    {!Par.Chaos.Injected} instead.  Anything else — a stuck machine
    ([chaos-par-stuck]), an unexpected exception ([chaos-par-abort]),
    or divergent outputs ([chaos-par-outputs]) — is a robustness bug
    in the runtime's unwinding or promotion machinery. *)
let check_chaos_par ~(seed : int) ~(domains : int list)
    ~(options : Eval.options) (prog : Ast.program)
    (expected : (Ast.reg * Value.t option) list) ~(outputs : Ast.reg list) :
    divergence list =
  List.concat_map
    (fun d ->
      let plan = Par.Chaos.random_plan ~seed ~domains:d () in
      let raising = Par.Chaos.has_raise plan in
      match
        (* a short beat period so the plan's beat-indexed faults
           actually land inside these tiny generated programs *)
        Par_exec.run ~options ~domains:d ~heart_us:20. ~chaos:plan prog
      with
      | Ok (task, _stats) ->
          compare_outputs ~oracle:"chaos-par-outputs"
            ~what:(Fmt.str "chaos par domains=%d seed=%d" d seed)
            expected
            (snapshot outputs task.regs)
      | Error e ->
          [ div "chaos-par-stuck" "domains=%d seed=%d: %a" d seed
              Machine_error.pp e ]
      | exception Par.Chaos.Injected _ when raising ->
          (* the typed fault escaped through the fork tree: the legal
             outcome of a raising plan *)
          []
      | exception e ->
          [ div "chaos-par-abort" "domains=%d seed=%d: %s" d seed
              (Printexc.to_string e) ])
    domains

(* ------------------------------------------------------------------ *)

(** [check ?cfg ?seed prog ~outputs] runs the whole battery; returns
    all divergences found (empty list = program agrees everywhere).
    [seed] feeds the [chaos-par-*] fault plans (and nothing else) —
    pass the generator's seed so a reproducer file pins the plan. *)
let check ?(cfg = default_cfg) ?(seed = 0) (prog : Ast.program)
    ~(outputs : Ast.reg list) : divergence list =
  match Check.errors prog with
  | _ :: _ as ds ->
      [ div "check" "static errors: %a" (Fmt.list Check.pp_diagnostic) ds ]
  | [] -> (
      match Eval.run ~options:ref_options prog with
      | Error e -> [ div "eval-ref" "%a" Machine_error.pp e ]
      | Ok { stop = Eval.Blocked j; _ } ->
          [ div "eval-ref" "reference run blocked on j%d" j ]
      | Ok refr ->
          let expected = snapshot outputs refr.task.regs in
          let ds = ref [] in
          let add d = ds := !ds @ d in
          (* --- eval at several heartbeat thresholds --- *)
          let fins =
            List.filter_map
              (fun h ->
                match Eval.run ~options:(with_heart h) prog with
                | Error e ->
                    add [ div "eval-heart" "♥=%d: %a" h Machine_error.pp e ];
                    None
                | Ok { stop = Eval.Blocked j; _ } ->
                    add [ div "eval-heart" "♥=%d: blocked on j%d" h j ];
                    None
                | Ok fin ->
                    add
                      (compare_outputs ~oracle:"eval-heart"
                         ~what:(Fmt.str "♥=%d" h) expected
                         (snapshot outputs fin.task.regs));
                    let c = fin.cost and s = fin.stats in
                    if c.work <> s.instructions + (ref_options.tau * s.forks)
                    then
                      add
                        [ div "eval-cost"
                            "♥=%d: work %d ≠ instructions %d + τ·forks %d" h
                            c.work s.instructions s.forks ];
                    if c.span > c.work then
                      add [ div "eval-cost" "♥=%d: span %d > work %d" h c.span c.work ];
                    Some (h, fin))
              hearts
          in
          (* --- swap_joins freedom --- *)
          (match
             Eval.run ~options:{ (with_heart 17) with swap_joins = true } prog
           with
          | Error e -> add [ div "eval-swap" "%a" Machine_error.pp e ]
          | Ok { stop = Eval.Blocked j; _ } ->
              add [ div "eval-swap" "blocked on j%d" j ]
          | Ok fin ->
              add
                (compare_outputs ~oracle:"eval-swap" ~what:"swap_joins" expected
                   (snapshot outputs fin.task.regs)));
          (* --- printer/parser round trip --- *)
          (match Parser.parse_result (Printer.program_to_string prog) with
          | Error e -> add [ div "round-trip" "reparse failed: %s" e ]
          | Ok p' ->
              if not (Ast.equal_program prog p') then
                add [ div "round-trip" "reparsed program differs" ]);
          (* --- lowering: independent interpreter + Par_ir image --- *)
          let lowered =
            match Lower.lower ~options:(with_heart 17) ~cpi prog with
            | lw ->
                add
                  (compare_outputs ~oracle:"lower-outputs" ~what:"lowered"
                     expected (snapshot outputs lw.task.regs));
                (match List.assoc_opt 17 fins with
                | None -> ()
                | Some fin ->
                    if lw.steps <> fin.stats.instructions then
                      add
                        [ div "lower-steps" "lowered %d steps, eval %d" lw.steps
                            fin.stats.instructions ];
                    if lw.forks <> fin.stats.forks then
                      add
                        [ div "lower-steps" "lowered %d forks, eval %d" lw.forks
                            fin.stats.forks ];
                    let w_ir = Sim.Par_ir.work lw.ir
                    and s_ir = Sim.Par_ir.span lw.ir in
                    let tau = ref_options.tau in
                    if w_ir <> cpi * (fin.cost.work - (tau * fin.stats.forks))
                    then
                      add
                        [ div "lower-work" "IR work %d ≠ cpi·(work %d − τ·forks %d)"
                            w_ir fin.cost.work fin.stats.forks ];
                    if
                      s_ir > cpi * fin.cost.span
                      || s_ir < cpi * (fin.cost.span - (tau * fin.stats.forks))
                    then
                      add
                        [ div "lower-span" "IR span %d outside cpi·[%d−τ·forks, %d]"
                            s_ir fin.cost.span fin.cost.span ]);
                Some lw
            | exception Lower.Stuck e ->
                add [ div "lower-stuck" "%a" Machine_error.pp e ];
                None
          in
          (* --- simulator battery on the lowered IR --- *)
          (match lowered with
          | None -> ()
          | Some lw ->
              let work = Sim.Par_ir.work lw.ir
              and span = Sim.Par_ir.span lw.ir in
              let base = Sim.Params.(default |> with_heart_us sim_heart_us) in
              List.iter
                (fun procs ->
                  let params = Sim.Params.with_procs procs base in
                  (* exact serial accounting, promotion off *)
                  (if procs = 1 then
                     let horizon = (60 * work) + 50_000_000 in
                     match
                       sim_run ~params ~mech:Sim.Interrupts.Off
                         ~faults:Sim.Interrupts.no_faults ~horizon lw.ir
                     with
                     | Error d -> add [ d ]
                     | Ok m ->
                         if m.makespan <> m.work + m.overhead || m.idle <> 0
                         then
                           add
                             [ div "sim-serial-exact"
                                 "P=1 off: makespan %d ≠ work %d + overhead %d \
                                  (idle %d)"
                                 m.makespan m.work m.overhead m.idle ]);
                  List.iter
                    (fun mech ->
                      add
                        (check_sim_config ~tag:"" ~params ~mech
                           ~faults:Sim.Interrupts.no_faults ~check_upper:true
                           lw.ir ~work ~span))
                    cfg.mechs)
                cfg.cores;
              (* --- fault injection: timing may drift, results and
                 conservation may not --- *)
              if cfg.faults then begin
                let params = Sim.Params.with_procs 4 base in
                let faults =
                  { Sim.Interrupts.drop = 0.3; dup = 0.25;
                    fault_jitter = Sim.Params.heart_cycles params / 2;
                    steal_fail = 0.3; schedule = [] }
                in
                List.iter
                  (fun mech ->
                    add
                      (check_sim_config ~tag:"fault-" ~params ~mech ~faults
                         ~check_upper:false lw.ir ~work ~span))
                  (List.filter (fun m -> m <> Sim.Interrupts.Off) cfg.mechs)
              end;
              (* --- chaos: crash/stall/slow cores + recovery --- *)
              if cfg.chaos then begin
                let params = Sim.Params.with_procs 4 base in
                let mech =
                  match
                    List.filter (fun m -> m <> Sim.Interrupts.Off) cfg.mechs
                  with
                  | m :: _ -> m
                  | [] -> Sim.Interrupts.Nautilus_ipi
                in
                add (check_chaos ~params ~mech lw.ir ~work ~span)
              end);
          (* --- the real runtime, per domain count --- *)
          List.iter
            (fun domains ->
              match Par_exec.run ~options:(with_heart 17) ~domains prog with
              | Error e ->
                  add [ div "par-stuck" "domains=%d: %a" domains
                          Machine_error.pp e ]
              | Ok (task, _stats) ->
                  add
                    (compare_outputs ~oracle:"par-outputs"
                       ~what:(Fmt.str "par runtime domains=%d" domains)
                       expected (snapshot outputs task.regs)))
            cfg.par;
          (* --- the multi-domain runtime under injected faults --- *)
          if cfg.chaos_par then
            add
              (check_chaos_par ~seed
                 ~domains:(if cfg.par = [] then [ 1; 2; 4 ] else cfg.par)
                 ~options:(with_heart 17) prog expected ~outputs);
          !ds)

(** [check_gen ?cfg g] = [check ~seed:g.seed g.prog ~outputs:g.outputs]. *)
let check_gen ?cfg (g : Gen.t) : divergence list =
  check ?cfg ~seed:g.seed g.prog ~outputs:g.outputs
