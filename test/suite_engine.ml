(* Tests for the Par_ir, task frames (Runnable) and the discrete-event
   engine: conservation of work, scheduling modes, joins/barriers,
   heartbeat promotion, the bandwidth model. *)

open Sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Par_ir --- *)

let test_work_computation () =
  check_int "leaf" 7 (Par_ir.work (Par_ir.leaf 7));
  check_int "seq" 10 (Par_ir.work (Par_ir.seq [ Par_ir.leaf 4; Par_ir.leaf 6 ]));
  check_int "for const" 50 (Par_ir.work (Par_ir.for_const ~n:10 ~cycles:5));
  check_int "for fn" 45 (Par_ir.work (Par_ir.for_fn ~n:10 (fun i -> i)));
  check_int "nested" 100
    (Par_ir.work (Par_ir.for_nested ~n:10 (fun _ -> Par_ir.leaf 10)));
  check_int "spawn"
    (3 + 4)
    (Par_ir.work
       (Par_ir.spawn2 (fun () -> Par_ir.leaf 3) (fun () -> Par_ir.leaf 4)))

let test_span_computation () =
  check_int "for span = max iteration" 9
    (Par_ir.span (Par_ir.for_fn ~n:10 (fun i -> i)));
  check_int "spawn span = max branch" 4
    (Par_ir.span
       (Par_ir.spawn2 (fun () -> Par_ir.leaf 3) (fun () -> Par_ir.leaf 4)));
  check "parallelism > 1 on a loop" true
    (Par_ir.parallelism (Par_ir.for_const ~n:100 ~cycles:5) > 50.)

let test_work_deep_spawn_tree () =
  (* a 2^16-leaf spawn tree must not overflow the traversal *)
  let rec tree d : Par_ir.t =
    if d = 0 then Par_ir.leaf 1
    else Par_ir.spawn2 (fun () -> tree (d - 1)) (fun () -> tree (d - 1))
  in
  check_int "full tree work" 65536 (Par_ir.work (tree 16))

(* --- Runnable: serial execution conserves work --- *)

let params p = { Params.default with procs = p }

let run ?(mode = Runnable.Serial) ?(mech = Interrupts.Off) ?(procs = 1)
    ?(dilation = 100) ?(bw_cap = infinity) ?(promote = true) ir =
  let cfg = Runnable.make_cfg ~dilation_pct:dilation mode (params procs) in
  let config = Engine.make_config ~mech ~promote ~bw_cap cfg in
  Engine.run config ir

let sample_irs =
  [
    ("flat loop", Par_ir.for_const ~n:10_000 ~cycles:13);
    ("irregular loop", Par_ir.for_fn ~n:5_000 (fun i -> 1 + (i mod 37)));
    ( "nested loop",
      Par_ir.for_nested ~n:100 (fun i ->
          Par_ir.for_const ~n:50 ~cycles:(3 + (i mod 5))) );
    ( "spawn tree",
      let rec t d : Par_ir.t =
        if d = 0 then Par_ir.leaf 100
        else Par_ir.spawn2 (fun () -> t (d - 1)) (fun () -> t (d - 1))
      in
      t 8 );
    ( "mixed",
      Par_ir.seq
        [
          Par_ir.leaf 500;
          Par_ir.spawn2
            (fun () -> Par_ir.for_const ~n:300 ~cycles:7)
            (fun () -> Par_ir.leaf 900);
          Par_ir.for_nested ~n:20 (fun _ -> Par_ir.leaf 33);
        ] );
  ]

let test_serial_makespan_equals_work () =
  List.iter
    (fun (name, ir) ->
      let m = run ir in
      (* serial: no spawns, no dilation; makespan = work (±1 for the
         final event granularity) *)
      check (name ^ ": work conserved") true
        (abs (m.makespan - Par_ir.work ir) <= 1);
      check_int (name ^ ": no tasks") 0 m.tasks_created)
    sample_irs

let test_all_modes_conserve_work () =
  (* the algorithm work retired is identical in every mode (overheads
     are accounted separately) *)
  List.iter
    (fun (name, ir) ->
      let w = Par_ir.work ir in
      List.iter
        (fun (mname, mode, mech, procs) ->
          let m = run ~mode ~mech ~procs ir in
          check_int
            (Printf.sprintf "%s/%s work" name mname)
            w m.work)
        [
          ("serial", Runnable.Serial, Interrupts.Off, 1);
          ("cilk1", Runnable.Cilk, Interrupts.Off, 1);
          ("cilk8", Runnable.Cilk, Interrupts.Off, 8);
          ("tpal1", Runnable.Tpal, Interrupts.Nautilus_ipi, 1);
          ("tpal8", Runnable.Tpal, Interrupts.Nautilus_ipi, 8);
          ("tpal-ping8", Runnable.Tpal, Interrupts.Ping_thread, 8);
        ])
    sample_irs

let test_cilk_decomposes_loops () =
  let ir = Par_ir.for_const ~n:100_000 ~cycles:10 in
  let m = run ~mode:Runnable.Cilk ~procs:15 ir in
  (* grain = min(2048, 100000/120) = 833 -> ~120 tasks *)
  check "cilk created loop tasks" true (m.tasks_created > 60);
  check "cilk spent overhead" true (m.overhead > 0);
  check "cilk parallel speedup" true
    (float_of_int (Par_ir.work ir) /. float_of_int m.makespan > 8.)

let test_cilk_eager_spawns () =
  let rec t d : Par_ir.t =
    if d = 0 then Par_ir.leaf 50
    else Par_ir.spawn2 (fun () -> t (d - 1)) (fun () -> t (d - 1))
  in
  let m = run ~mode:Runnable.Cilk ~procs:1 (t 10) in
  (* every internal node spawns: 2^10 - 1 tasks even on one core *)
  check_int "eager task per spawn" 1023 m.tasks_created

let test_tpal_serial_without_beats () =
  let ir = Par_ir.for_const ~n:50_000 ~cycles:10 in
  let m = run ~mode:Runnable.Tpal ~mech:Interrupts.Off ~procs:15 ir in
  check_int "no promotions without beats" 0 m.promotions;
  (* the other 14 cores never get work *)
  check "makespan ~ serial" true (m.makespan >= Par_ir.work ir)

let test_tpal_promotes_on_beats () =
  let ir = Par_ir.for_const ~n:2_000_000 ~cycles:10 in
  let m = run ~mode:Runnable.Tpal ~mech:Interrupts.Nautilus_ipi ~procs:15 ir in
  check "promotions happened" true (m.promotions > 5);
  check_int "every promotion creates a task" m.promotions m.tasks_created;
  check "beats delivered" true (m.beats_delivered > 0);
  check "parallel speedup" true
    (float_of_int (Par_ir.work ir) /. float_of_int m.makespan > 4.)

let test_tpal_interrupts_only_no_promotions () =
  let ir = Par_ir.for_const ~n:500_000 ~cycles:10 in
  let m =
    run ~mode:Runnable.Tpal ~mech:Interrupts.Nautilus_ipi ~procs:1
      ~promote:false ir
  in
  check_int "no promotions" 0 m.promotions;
  check "beats still delivered and charged" true
    (m.beats_delivered > 0 && m.overhead > 0)

let test_join_barrier_blocks_phases () =
  (* two sequential phases: the second must not start before the first
     completes, even when the first is split across cores — makespan
     is at least the sum of the two per-phase lower bounds *)
  let phase = Par_ir.for_const ~n:10_000 ~cycles:10 in
  let ir = Par_ir.seq [ phase; phase ] in
  let m = run ~mode:Runnable.Cilk ~procs:4 ir in
  let per_phase_lb = Par_ir.work phase / 4 in
  check "barrier respected" true (m.makespan >= 2 * per_phase_lb)

let test_dilation_slows_execution () =
  let ir = Par_ir.for_const ~n:10_000 ~cycles:10 in
  let m1 = run ~mode:Runnable.Tpal ~mech:Interrupts.Off ~dilation:100 ir in
  let m2 = run ~mode:Runnable.Tpal ~mech:Interrupts.Off ~dilation:200 ir in
  check "2x dilation ~ 2x time" true
    (float_of_int m2.makespan /. float_of_int m1.makespan > 1.9);
  (* serial mode ignores dilation *)
  let m3 = run ~mode:Runnable.Serial ~dilation:200 ir in
  check "serial undilated" true (abs (m3.makespan - Par_ir.work ir) <= 1)

let test_bandwidth_cap_binds () =
  let ir = Par_ir.for_const ~n:1_000_000 ~cycles:8 in
  let m = run ~mode:Runnable.Cilk ~procs:15 ~bw_cap:3.0 ir in
  let speedup = float_of_int (Par_ir.work ir) /. float_of_int m.makespan in
  check "speedup capped near 3" true (speedup <= 3.2);
  check "but still parallel" true (speedup > 2.0)

let test_bandwidth_cap_ignores_single_core () =
  let ir = Par_ir.for_const ~n:100_000 ~cycles:8 in
  let m = run ~mode:Runnable.Cilk ~procs:1 ~bw_cap:3.0 ir in
  check "1 core unaffected by cap" true
    (float_of_int m.makespan /. float_of_int (Par_ir.work ir) < 1.1)

let test_promote_innermost_ablation () =
  let ir =
    Par_ir.for_nested ~n:1_000 (fun _ -> Par_ir.for_const ~n:500 ~cycles:10)
  in
  let speedup_of innermost =
    let cfg =
      Runnable.make_cfg ~promote_innermost:innermost Runnable.Tpal (params 15)
    in
    let config = Engine.make_config ~mech:Interrupts.Nautilus_ipi cfg in
    let m = Engine.run config ir in
    float_of_int (Par_ir.work ir) /. float_of_int m.makespan
  in
  (* innermost-first promotes tiny inner slices: strictly worse *)
  check "outermost-first wins" true
    (speedup_of false > speedup_of true)

let test_determinism () =
  let ir =
    Par_ir.for_nested ~n:500 (fun i -> Par_ir.leaf (100 + (i mod 77)))
  in
  let m1 = run ~mode:Runnable.Tpal ~mech:Interrupts.Ping_thread ~procs:7 ir in
  let m2 = run ~mode:Runnable.Tpal ~mech:Interrupts.Ping_thread ~procs:7 ir in
  check_int "same makespan" m1.makespan m2.makespan;
  check_int "same promotions" m1.promotions m2.promotions;
  check_int "same steals" m1.steals m2.steals

let test_empty_program () =
  let m = run (Par_ir.seq []) in
  check_int "zero work" 0 m.work;
  check "finishes" true (m.makespan <= 1)

let prop_modes_agree_on_work =
  QCheck.Test.make ~name:"work identical across modes (random loops)"
    ~count:40
    QCheck.(pair (int_range 1 2_000) (int_range 1 40))
    (fun (n, c) ->
      let ir = Par_ir.for_const ~n ~cycles:c in
      let w = Par_ir.work ir in
      let ms = run ~mode:Runnable.Serial ir in
      let mc = run ~mode:Runnable.Cilk ~procs:4 ir in
      let mt = run ~mode:Runnable.Tpal ~mech:Interrupts.Nautilus_ipi ~procs:4 ir in
      ms.work = w && mc.work = w && mt.work = w)

let prop_parallel_not_slower_than_bound =
  QCheck.Test.make ~name:"makespan >= work / procs (no free lunch)" ~count:40
    QCheck.(pair (int_range 1_000 100_000) (int_range 1 15))
    (fun (n, procs) ->
      let ir = Par_ir.for_const ~n ~cycles:10 in
      let m = run ~mode:Runnable.Cilk ~procs ir in
      m.makespan >= Par_ir.work ir / procs)

(* --- Sim_trace: the observability layer --- *)

let run_traced ?(mode = Runnable.Tpal) ?(mech = Interrupts.Off) ?(procs = 1)
    ?(dilation = 100) ?(bw_cap = infinity) ?(promote = true) ir =
  let cfg = Runnable.make_cfg ~dilation_pct:dilation mode (params procs) in
  let config = Engine.make_config ~mech ~promote ~bw_cap cfg in
  let trace = Sim_trace.create () in
  let m = Engine.run ~trace config ir in
  (m, trace)

let traced_configs =
  [
    ("serial", Runnable.Serial, Interrupts.Off, 1, infinity);
    ("cilk8", Runnable.Cilk, Interrupts.Off, 8, infinity);
    ("cilk-bw", Runnable.Cilk, Interrupts.Off, 15, 3.0);
    ("tpal-naut8", Runnable.Tpal, Interrupts.Nautilus_ipi, 8, infinity);
    ("tpal-ping7", Runnable.Tpal, Interrupts.Ping_thread, 7, infinity);
    ("tpal-papi4", Runnable.Tpal, Interrupts.Papi, 4, infinity);
  ]

let test_trace_reconciles_exactly () =
  (* the tentpole invariant: summed traced segment cycles equal the
     engine's Metrics to the cycle, per class, on every config *)
  List.iter
    (fun (name, ir) ->
      List.iter
        (fun (cname, mode, mech, procs, bw_cap) ->
          let m, tr = run_traced ~mode ~mech ~procs ~bw_cap ir in
          let tot = Sim_trace.totals tr in
          let label what = Printf.sprintf "%s/%s %s" name cname what in
          check_int (label "work") m.work tot.Sim_trace.work;
          check_int (label "overhead") m.overhead tot.Sim_trace.overhead;
          check_int (label "idle") m.idle tot.Sim_trace.idle;
          check_int (label "beats") m.beats_delivered (Sim_trace.beats tr);
          check_int (label "lost") m.beats_lost (Sim_trace.beats_lost tr);
          check_int (label "steals") m.steals (Sim_trace.steals tr);
          check_int (label "promotions") m.promotions
            (Sim_trace.promotions tr))
        traced_configs)
    sample_irs

let assert_no_run_segment_spans_beat (name : string) (tr : Sim_trace.t) :
    unit =
  let nprocs = Sim_trace.procs tr in
  for c = 0 to nprocs - 1 do
    let beats =
      List.filter_map
        (fun (e : Sim_trace.event) ->
          match e.kind with
          | Sim_trace.Beat_delivered _ when e.core = c -> Some e.at
          | _ -> None)
        (Sim_trace.events tr)
    in
    List.iter
      (fun (cls, start, stop, _, _, _) ->
        if cls = Sim_trace.Run then
          List.iter
            (fun b ->
              if b > start && b < stop then
                Alcotest.failf
                  "%s: core %d run segment [%d,%d) spans beat at %d" name c
                  start stop b)
            beats)
      (Sim_trace.segments_of_core tr c)
  done

let test_trace_no_segment_spans_beat () =
  (* the engine's event-ordering invariant: effective beat deliveries
     only land at segment boundaries (promotion-ready points) *)
  let big = Par_ir.for_const ~n:1_000_000 ~cycles:13 in
  List.iter
    (fun (cname, mech, procs) ->
      let _, tr = run_traced ~mode:Runnable.Tpal ~mech ~procs big in
      check (cname ^ ": beats present") true (Sim_trace.beats tr > 0);
      assert_no_run_segment_spans_beat cname tr)
    [
      ("nautilus-8", Interrupts.Nautilus_ipi, 8);
      ("ping-7", Interrupts.Ping_thread, 7);
      ("papi-4", Interrupts.Papi, 4);
      ("nautilus-1", Interrupts.Nautilus_ipi, 1);
    ]

let test_trace_steal_probes_never_self () =
  let rec t d : Par_ir.t =
    if d = 0 then Par_ir.leaf 400
    else Par_ir.spawn2 (fun () -> t (d - 1)) (fun () -> t (d - 1))
  in
  let procs = 8 in
  let _, tr = run_traced ~mode:Runnable.Cilk ~procs (t 9) in
  let attempts = ref 0 in
  Sim_trace.iter
    (fun (e : Sim_trace.event) ->
      match e.kind with
      | Sim_trace.Steal_attempt { victim } ->
          incr attempts;
          check "victim in range" true (victim >= 0 && victim < procs);
          if victim = e.core then
            Alcotest.failf "core %d probed itself" e.core
      | _ -> ())
    tr;
  check "steal scan exercised" true (!attempts > 0)

let test_beats_target_uses_final_makespan () =
  let ir = Par_ir.for_const ~n:300_000 ~cycles:10 in
  let procs = 4 in
  let m = run ~mode:Runnable.Tpal ~mech:Interrupts.Nautilus_ipi ~procs ir in
  let heart = Params.heart_cycles (params procs) in
  check_int "target = procs * (makespan / heart)"
    (procs * (m.makespan / heart))
    m.beats_target;
  let m_off = run ~mode:Runnable.Tpal ~mech:Interrupts.Off ~procs ir in
  check_int "no mechanism, no target" 0 m_off.beats_target

let test_trace_task_ids_and_determinism () =
  let ir =
    Par_ir.for_nested ~n:500 (fun i -> Par_ir.leaf (100 + (i mod 77)))
  in
  let go () =
    run_traced ~mode:Runnable.Tpal ~mech:Interrupts.Ping_thread ~procs:7 ir
  in
  let m1, tr1 = go () in
  let _, tr2 = go () in
  check "trace deterministic" true
    (Sim_trace.events tr1 = Sim_trace.events tr2);
  (* ids are reset per run: every run segment names a task in
     [0, tasks_created] (id 0 is the root) *)
  Sim_trace.iter
    (fun (e : Sim_trace.event) ->
      match e.kind with
      | Sim_trace.Seg_start Sim_trace.Run ->
          check "run segment has a task id" true
            (e.task >= 0 && e.task <= m1.tasks_created)
      | _ -> ())
    tr1

let test_trace_chrome_export_valid () =
  let ir = Par_ir.for_const ~n:200_000 ~cycles:9 in
  let _, tr =
    run_traced ~mode:Runnable.Tpal ~mech:Interrupts.Ping_thread ~procs:4 ir
  in
  let json = Sim_trace.to_chrome_string tr in
  check "chrome export is valid JSON" true (Result.is_ok (Stats.Json.of_string json));
  check "report renders" true (String.length (Sim_trace.report tr) > 0)

let prop_trace_reconciles_random =
  QCheck.Test.make
    ~name:"random IR/config: trace reconciles, mechanism counters agree"
    ~count:30
    QCheck.(
      quad (int_range 100 60_000) (int_range 1 25) (int_range 1 8)
        (int_range 0 3))
    (fun (n, c, procs, mech_i) ->
      let mech =
        match mech_i with
        | 0 -> Interrupts.Off
        | 1 -> Interrupts.Ping_thread
        | 2 -> Interrupts.Papi
        | _ -> Interrupts.Nautilus_ipi
      in
      let ir = Par_ir.for_const ~n ~cycles:c in
      let m, tr = run_traced ~mode:Runnable.Tpal ~mech ~procs ir in
      let tot = Sim_trace.totals tr in
      tot.Sim_trace.work = m.work
      && tot.Sim_trace.overhead = m.overhead
      && tot.Sim_trace.idle = m.idle
      && Sim_trace.beats tr = m.beats_delivered
      && Sim_trace.beats_lost tr = m.beats_lost
      (* the mechanism generated every delivered beat, plus at most the
         one left in flight when the run ended *)
      && m.beats_emitted - m.beats_delivered >= 0
      && m.beats_emitted - m.beats_delivered <= 1)

let suite =
  ( "engine",
    [
      Alcotest.test_case "Par_ir work" `Quick test_work_computation;
      Alcotest.test_case "Par_ir span" `Quick test_span_computation;
      Alcotest.test_case "deep spawn tree traversal" `Quick
        test_work_deep_spawn_tree;
      Alcotest.test_case "serial conserves work" `Quick
        test_serial_makespan_equals_work;
      Alcotest.test_case "all modes conserve work" `Quick
        test_all_modes_conserve_work;
      Alcotest.test_case "cilk loop decomposition" `Quick
        test_cilk_decomposes_loops;
      Alcotest.test_case "cilk eager spawns" `Quick test_cilk_eager_spawns;
      Alcotest.test_case "tpal serial without beats" `Quick
        test_tpal_serial_without_beats;
      Alcotest.test_case "tpal promotes on beats" `Quick
        test_tpal_promotes_on_beats;
      Alcotest.test_case "interrupts-only config" `Quick
        test_tpal_interrupts_only_no_promotions;
      Alcotest.test_case "join barriers between phases" `Quick
        test_join_barrier_blocks_phases;
      Alcotest.test_case "dilation model" `Quick test_dilation_slows_execution;
      Alcotest.test_case "bandwidth cap binds" `Quick test_bandwidth_cap_binds;
      Alcotest.test_case "bandwidth cap on one core" `Quick
        test_bandwidth_cap_ignores_single_core;
      Alcotest.test_case "promotion-policy ablation" `Quick
        test_promote_innermost_ablation;
      Alcotest.test_case "simulation determinism" `Quick test_determinism;
      Alcotest.test_case "empty program" `Quick test_empty_program;
      QCheck_alcotest.to_alcotest prop_modes_agree_on_work;
      QCheck_alcotest.to_alcotest prop_parallel_not_slower_than_bound;
      Alcotest.test_case "trace reconciles with Metrics" `Quick
        test_trace_reconciles_exactly;
      Alcotest.test_case "no run segment spans a beat" `Quick
        test_trace_no_segment_spans_beat;
      Alcotest.test_case "steal probes never target self" `Quick
        test_trace_steal_probes_never_self;
      Alcotest.test_case "beats target formula" `Quick
        test_beats_target_uses_final_makespan;
      Alcotest.test_case "trace task ids & determinism" `Quick
        test_trace_task_ids_and_determinism;
      Alcotest.test_case "chrome export valid JSON" `Quick
        test_trace_chrome_export_valid;
      QCheck_alcotest.to_alcotest prop_trace_reconciles_random;
    ] )
