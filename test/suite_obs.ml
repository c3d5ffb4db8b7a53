(* The observability subsystem (lib/obs): ring-buffer drop accounting,
   the event codec, latency histograms, and the what-if profiler's
   reconciliation against the evaluator's own cost semantics — plus
   the event-stream invariants of the REAL runtime: every worker's
   Task_start/Task_finish events strictly alternate, a steal never
   names the thief as its own victim, and every ring count equals the
   counter the runtime keeps for it. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ring: fixed-capacity, drop-oldest, single-writer. *)

let test_ring_basics () =
  let r = Obs.Ring.create ~capacity:16 () in
  check_int "capacity" 16 (Obs.Ring.capacity r);
  check_int "fresh length" 0 (Obs.Ring.length r);
  for i = 0 to 9 do
    Obs.Ring.emit r ~code:1 ~at_ns:(100 * i) ~a:i ~b:(-i)
  done;
  check_int "written" 10 (Obs.Ring.written r);
  check_int "length" 10 (Obs.Ring.length r);
  check_int "no drops" 0 (Obs.Ring.dropped r);
  let seen = ref [] in
  Obs.Ring.iter r ~f:(fun ~code ~at_ns ~a ~b ->
      seen := (code, at_ns, a, b) :: !seen);
  let seen = List.rev !seen in
  check_int "iter count" 10 (List.length seen);
  List.iteri
    (fun i (code, at_ns, a, b) ->
      check_int "code" 1 code;
      check_int "timestamp order" (100 * i) at_ns;
      check_int "payload a" i a;
      check_int "payload b" (-i) b)
    seen

let test_ring_overflow () =
  let r = Obs.Ring.create ~capacity:16 () in
  for i = 0 to 99 do
    Obs.Ring.emit r ~code:2 ~at_ns:i ~a:i ~b:0
  done;
  (* written = length + dropped, always *)
  check_int "written" 100 (Obs.Ring.written r);
  check_int "length is capacity" 16 (Obs.Ring.length r);
  check_int "dropped" 84 (Obs.Ring.dropped r);
  (* the retained window is the newest [capacity] events, oldest
     first *)
  let seen = ref [] in
  Obs.Ring.iter r ~f:(fun ~code:_ ~at_ns:_ ~a ~b:_ -> seen := a :: !seen);
  let seen = List.rev !seen in
  check "drop-oldest window" true (seen = List.init 16 (fun i -> 84 + i))

let test_ring_capacity_rounding () =
  (* capacities round up to a power of two, floor 16 *)
  check_int "floor" 16 (Obs.Ring.capacity (Obs.Ring.create ~capacity:3 ()));
  check_int "round up" 32 (Obs.Ring.capacity (Obs.Ring.create ~capacity:17 ()))

(* ------------------------------------------------------------------ *)
(* Event codec: every variant survives the 3-int ring encoding. *)

let test_event_roundtrip () =
  let cases : Obs.Event.t list =
    [
      Beat;
      Promote { kind = `Loop };
      Promote { kind = `Branch };
      Steal { ok = true; victim = 3 };
      Steal { ok = false; victim = 0 };
      Join_suspend;
      Join_resume;
      Task_start { region = 7 };
      Task_finish { region = 7 };
      Nap { ns = 123_456 };
      Admit { tenant = 2 };
      Reject { shed = true };
      Reject { shed = false };
      Dispatch { tenant = 1; urgency = 4 };
      Complete { tenant = 5; outcome = `Met; sojourn_ns = 42 };
      Complete { tenant = 5; outcome = `Missed; sojourn_ns = 42 };
      Complete { tenant = 5; outcome = `Failed; sojourn_ns = 42 };
      Complete { tenant = 5; outcome = `Cancelled; sojourn_ns = 42 };
      Degraded { on = true };
      Degraded { on = false };
      Chaos { kind = `Stall; arg = 3 };
      Chaos { kind = `Slow; arg = 8 };
      Chaos { kind = `Drop; arg = 1 };
      Chaos { kind = `Raise; arg = 0 };
      Cancel { reason = `Explicit };
      Cancel { reason = `Deadline };
      Cancel { reason = `Lease };
      Restart { attempt = 1 };
      Conn { up = true };
      Conn { up = false };
      Frame { rx = true; kind = 3; bytes = 96 };
      Frame { rx = false; kind = 5; bytes = 28 };
      Route { shard = 2; size = 16 };
      Drain { pending = 12 };
      Gc { phase = `Stw_leader; inner = []; ns = 1_400_000 };
      Gc { phase = `Stw_handler; inner = [ `Minor; `Major_slice ]; ns = 9 };
      Gc { phase = `Minor; inner = []; ns = 0 };
      Gc { phase = `Major_slice; inner = [ `Stw_leader ]; ns = 77 };
    ]
  in
  List.iter
    (fun e ->
      let code, a, b = Obs.Event.encode e in
      match Obs.Event.decode ~code ~a ~b with
      | Some e' ->
          check (Obs.Event.name e ^ " roundtrips") true (e = e')
      | None -> Alcotest.failf "decode failed for %s" (Obs.Event.name e))
    cases;
  check "unknown code decodes to None" true
    (Obs.Event.decode ~code:9999 ~a:0 ~b:0 = None)

(* ------------------------------------------------------------------ *)
(* Histograms: log2 buckets, interpolated percentiles. *)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.add_ns h (i * 1000)
  done;
  check_int "count" 1000 (Obs.Hist.count h);
  let p50 = Obs.Hist.percentile_ns h 50. in
  let p95 = Obs.Hist.percentile_ns h 95. in
  let p99 = Obs.Hist.percentile_ns h 99. in
  check "p50 <= p95" true (p50 <= p95);
  check "p95 <= p99" true (p95 <= p99);
  check "p99 <= max" true (p99 <= 1_000_000.);
  check "p50 in range" true (p50 >= 1000. && p50 <= 1_000_000.);
  (* log2 buckets: the interpolated p50 of a uniform 1..1000 us stream
     is within a bucket (factor 2) of the true median *)
  check "p50 near median" true (p50 > 250_000. && p50 < 1_000_000.);
  let s = Obs.Hist.summary h in
  check "summary count" true (s.count = 1000);
  check "summary ordering" true
    (s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
  check "summary json" true
    (String.starts_with ~prefix:{|{"count": 1000, |} (Stats.Json.to_string (Obs.Hist.json_of_summary s)))

let test_hist_empty_and_merge () =
  let e = Obs.Hist.summary (Obs.Hist.create ()) in
  check_int "empty count" 0 e.count;
  check "empty json prints null percentiles" true
    (Stats.Json.to_string (Obs.Hist.json_of_summary e)
    = {|{"count": 0, "mean_ms": null, "p50_ms": null, "p95_ms": null, "p99_ms": null, "max_ms": null}|});
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  Obs.Hist.add_s a 0.001;
  Obs.Hist.add_s b 0.004;
  Obs.Hist.merge_into ~into:a b;
  check_int "merged count" 2 (Obs.Hist.count a)

(* ------------------------------------------------------------------ *)
(* Labels and trace-level drop accounting. *)

let test_labels () =
  let l = Obs.Labels.create () in
  let a = Obs.Labels.intern l "alpha" in
  let b = Obs.Labels.intern l "beta" in
  check "distinct ids" true (a <> b);
  check_int "intern is idempotent" a (Obs.Labels.intern l "alpha");
  check_string "name roundtrip" "beta" (Obs.Labels.name l b);
  check_string "unknown id" "?99" (Obs.Labels.name l 99)

let test_trace_drop_accounting () =
  let tr = Obs.Trace.create ~capacity:16 () in
  let ring = Obs.Trace.track tr "w" in
  for _ = 1 to 100 do
    Obs.Trace.emit tr ring Obs.Event.Beat
  done;
  check_int "total written" 100 (Obs.Trace.total_written tr);
  check_int "total dropped" 84 (Obs.Trace.total_dropped tr);
  match Obs.Trace.events tr with
  | [ (name, evs) ] ->
      check_string "track name" "w" name;
      check_int "retained events" 16 (List.length evs)
  | tracks -> Alcotest.failf "expected 1 track, got %d" (List.length tracks)

(* [ring_count tr p]: the events on all of [tr]'s tracks that satisfy
   [p]. *)
let ring_count (tr : Obs.Trace.t) (p : Obs.Event.t -> bool) : int =
  List.concat_map snd (Obs.Trace.events tr)
  |> List.filter (fun (_, e) -> p e)
  |> List.length

(* ------------------------------------------------------------------ *)
(* Real-runtime event-stream invariants.  The kernel below forks both
   ways the runtime promotes: a par_for (loop promotion) and a fork2
   tree (branch promotion + joins across domains). *)

let kernel () : int =
  let n = 100_000 in
  let a = Array.make n 0 in
  Par.Runtime.Exec.par_for ~lo:0 ~hi:n (fun i -> a.(i) <- (i * 7) land 1023);
  let rec fib k =
    if k < 2 then k
    else begin
      let x = ref 0 and y = ref 0 in
      Par.Runtime.Exec.fork2
        (fun () -> x := fib (k - 1))
        (fun () -> y := fib (k - 2));
      !x + !y
    end
  in
  Array.fold_left ( + ) 0 a + fib 16

let serial_kernel () : int =
  let n = 100_000 in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- (i * 7) land 1023
  done;
  let rec fib k = if k < 2 then k else fib (k - 1) + fib (k - 2) in
  Array.fold_left ( + ) 0 a + fib 16

let test_ring_event_invariants () =
  let domains = 4 in
  let tr = Obs.Trace.create () in
  let config =
    {
      Par.Runtime.default_config with
      domains;
      heart_us = 30.;
      tracer = Some tr;
    }
  in
  let sum, (st : Par.Runtime.stats) = Par.Runtime.run ~config kernel in
  check_int "checksum" (serial_kernel ()) sum;
  check "beats observed" true (st.total.beats > 0);
  check_int "the rings dropped nothing" 0 (Obs.Trace.total_dropped tr);
  (* worker [w] owns the [w]-th track *)
  List.iteri
    (fun w (_, events) ->
      let depth = ref 0 in
      List.iter
        (fun ((_, ev) : int * Obs.Event.t) ->
          match ev with
          | Task_start _ ->
              incr depth;
              (* run_task never nests on one worker: suspension ends
                 the bracket, resumption opens a fresh one *)
              check "starts do not nest" true (!depth = 1)
          | Task_finish _ ->
              decr depth;
              check "finish matches a start" true (!depth >= 0)
          | Steal { victim; _ } ->
              check "victim is not the thief" true (victim <> w);
              check "victim in range" true (victim >= 0 && victim < domains)
          | Nap { ns } -> check "nap duration positive" true (ns > 0)
          | _ -> ())
        events;
      check_int
        (Printf.sprintf "worker %d start/finish balance" w)
        0 !depth)
    (Obs.Trace.events tr)

let test_ring_invariants_and_export () =
  let domains = 4 in
  let tr = Obs.Trace.create () in
  let config =
    {
      Par.Runtime.default_config with
      domains;
      heart_us = 30.;
      tracer = Some tr;
    }
  in
  let sum, (st : Par.Runtime.stats) = Par.Runtime.run ~config kernel in
  check_int "checksum" (serial_kernel ()) sum;
  let tracks = Obs.Trace.events tr in
  check_int "one track per worker" domains (List.length tracks);
  List.iteri
    (fun w (name, events) ->
      check_string "track name" (Printf.sprintf "worker %d" w) name;
      let depth = ref 0 and beats = ref 0 and last_ts = ref 0 in
      List.iter
        (fun ((at_ns, ev) : int * Obs.Event.t) ->
          check "timestamps monotone per ring" true (at_ns >= !last_ts);
          last_ts := at_ns;
          match ev with
          | Beat -> incr beats
          | Task_start { region } ->
              incr depth;
              check "region label resolves" true
                (Obs.Trace.label tr region <> Printf.sprintf "?%d" region)
          | Task_finish _ -> decr depth
          | Steal { victim; _ } ->
              check "ring steal victim is not the thief" true (victim <> w)
          | _ -> ())
        events;
      check_int
        (Printf.sprintf "worker %d ring start/finish balance" w)
        0 !depth;
      ignore !beats)
    tracks;
  check "rings saw the whole stream" true (Obs.Trace.total_dropped tr = 0);
  (* the metrics fold sees the same session *)
  let m = Par.Runtime.metrics ~tracer:tr st in
  check_int "metrics domains" domains m.domains;
  check "metrics beats" true (m.total.beats > 0);
  check "metrics traced" true (m.traced = Obs.Trace.total_written tr);
  (* and the Chrome export is loadable: valid JSON naming every worker
     track and the heartbeat events *)
  let json = Obs.Export.to_chrome_string tr in
  check "chrome export is valid JSON" true (Result.is_ok (Stats.Json.of_string json));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  for w = 0 to domains - 1 do
    check
      (Printf.sprintf "export names worker %d" w)
      true
      (contains json (Printf.sprintf "worker %d" w))
  done;
  check "export has beat instants" true (contains json "\"beat\"")

let test_with_region () =
  let tr = Obs.Trace.create () in
  let config =
    {
      Par.Runtime.default_config with
      domains = 2;
      heart_us = 20.;
      tracer = Some tr;
    }
  in
  let sum, (st : Par.Runtime.stats) =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.with_region "phase-a" (fun () ->
            let n = 400_000 in
            let a = Array.make n 0 in
            Par.Runtime.Exec.par_for ~lo:0 ~hi:n (fun i ->
                a.(i) <- (i * 3) land 255);
            Array.fold_left ( + ) 0 a))
  in
  check "kernel ran" true (sum > 0);
  check "promotions happened" true (st.total.promotions > 0);
  (* tasks promoted inside the region carry its label into the rings *)
  let labelled = ref false in
  List.iter
    (fun (_, events) ->
      List.iter
        (fun ((_, ev) : int * Obs.Event.t) ->
          match ev with
          | Task_start { region } ->
              if Obs.Trace.label tr region = "phase-a" then labelled := true
          | _ -> ())
        events)
    (Obs.Trace.events tr);
  check "a promoted task carries the region label" true !labelled

let test_ring_counts_equal_counters () =
  List.iter
    (fun domains ->
      let tr = Obs.Trace.create () in
      let config =
        {
          Par.Runtime.default_config with
          domains;
          heart_us = 30.;
          tracer = Some tr;
        }
      in
      let sum, (st : Par.Runtime.stats) = Par.Runtime.run ~config kernel in
      check_int "checksum" (serial_kernel ()) sum;
      check_int "the rings dropped nothing" 0 (Obs.Trace.total_dropped tr);
      let count = ring_count tr in
      let equal what counter p =
        check_int (Printf.sprintf "%s at %d domains" what domains) counter
          (count p)
      in
      let s = st.total in
      equal "beats" s.beats (( = ) Obs.Event.Beat);
      equal "loop promotions" s.loop_promotions
        (( = ) (Obs.Event.Promote { kind = `Loop }));
      equal "branch promotions" s.branch_promotions
        (( = ) (Obs.Event.Promote { kind = `Branch }));
      equal "joins" s.joins (( = ) Obs.Event.Join_suspend);
      equal "resumes" s.resumes (( = ) Obs.Event.Join_resume);
      equal "task starts" s.tasks_run (function
        | Task_start _ -> true
        | _ -> false);
      equal "task finishes" s.tasks_run (function
        | Task_finish _ -> true
        | _ -> false);
      equal "steals" s.steals (function
        | Steal { ok; _ } -> ok
        | _ -> false))
    [ 2; 4 ]

let test_tiny_rings_under_load () =
  (* tiny rings under a real multi-domain run: drops must be accounted,
     never crash, and the retained tail must still decode *)
  let tr = Obs.Trace.create ~capacity:16 () in
  let config =
    {
      Par.Runtime.default_config with
      domains = 4;
      heart_us = 20.;
      tracer = Some tr;
    }
  in
  let sum, _ = Par.Runtime.run ~config kernel in
  check_int "checksum" (serial_kernel ()) sum;
  check "events were dropped" true (Obs.Trace.total_dropped tr > 0);
  let retained =
    List.fold_left
      (fun acc (_, evs) -> acc + List.length evs)
      0 (Obs.Trace.events tr)
  in
  check_int "written = retained + dropped"
    (Obs.Trace.total_written tr)
    (retained + Obs.Trace.total_dropped tr);
  check "retained window fits the rings" true (retained <= 4 * 16)

(* ------------------------------------------------------------------ *)
(* The what-if profiler, source 1: reconciliation against the
   evaluator's own Figure-28 cost summary on fuzz-generated programs —
   the profiler rebuilds the series-parallel derivation from the hook
   stream, so its totals must equal Eval's to the instruction, and the
   per-region maps must partition them exactly. *)

let profile_reconciles ~(seed : int) () =
  let gen = Fuzz.Gen.generate ~seed in
  match Obs.Profile.of_eval gen.prog with
  | Error e ->
      Alcotest.failf "seed %d: machine error %s" seed
        (Format.asprintf "%a" Tpal.Machine_error.pp e)
  | Ok (prof, fin) ->
      check_int "work reconciles" fin.cost.work prof.total_work;
      check_int "span reconciles" fin.cost.span prof.total_span;
      check_int "forks reconcile" fin.cost.forks prof.forks;
      let sum_work =
        List.fold_left (fun acc (r : Obs.Profile.region) -> acc + r.work) 0
          prof.regions
      in
      let sum_span =
        List.fold_left (fun acc (r : Obs.Profile.region) -> acc + r.span) 0
          prof.regions
      in
      check_int "regions partition work" prof.total_work sum_work;
      check_int "regions partition span" prof.total_span sum_span;
      check "work >= span" true (prof.total_work >= prof.total_span)

let test_profile_reconciliation () =
  (* a spread of fuzz seeds: straight-line, forking and blocking
     programs all reconcile *)
  List.iter (fun seed -> profile_reconciles ~seed ()) [ 1; 7; 42; 1337; 9001 ]

let test_profile_what_if () =
  let gen = Fuzz.Gen.generate ~seed:42 in
  match Obs.Profile.of_eval gen.prog with
  | Error _ -> Alcotest.fail "seed 42 should evaluate"
  | Ok (prof, _) ->
      (* factor 1 changes nothing *)
      List.iter
        (fun (pr : Obs.Profile.prediction) ->
          check "factor 1 is identity" true
            (abs_float (pr.predicted_speedup -. 1.) < 1e-9))
        (Obs.Profile.rank ~factor:1. prof);
      (* shrinking a span can only help, and the ranking is sorted *)
      let preds = Obs.Profile.rank ~factor:8. prof in
      let prev = ref infinity in
      List.iter
        (fun (pr : Obs.Profile.prediction) ->
          check "speedup >= 1" true (pr.predicted_speedup >= 1. -. 1e-9);
          check "ranked descending" true (pr.predicted_speedup <= !prev);
          check "span' <= span total" true
            (pr.predicted_span <= prof.total_span);
          prev := pr.predicted_speedup)
        preds;
      (* finite processors dilute the speedup: Brent's W/P term is
         unaffected by the what-if *)
      (match (Obs.Profile.rank ~factor:8. ~procs:2 prof, preds) with
      | p2 :: _, pinf :: _ ->
          check "P=2 speedup <= P=inf speedup" true
            (p2.predicted_speedup <= pinf.predicted_speedup +. 1e-9)
      | _ -> ());
      check "unknown region" true
        (Obs.Profile.what_if ~factor:8. prof "no-such-region" = None);
      check "report renders" true
        (String.length (Obs.Profile.report ~top:3 prof) > 0)

(* ------------------------------------------------------------------ *)
(* The what-if profiler, source 2: serialized-time attribution over a
   hand-built trace with known intervals.

     worker 0:  A [1000, 2000)   B [2000, 3000)
     worker 1:  A [1500, 2500)

   Work: A = 2000, B = 1000.  Serialized span: [1000,1500) only w0's A
   runs (A +500); [1500,2500) two tasks overlap (nobody); [2500,3000)
   only B runs (B +500).  Makespan 2000. *)

let test_profile_of_trace () =
  let tr = Obs.Trace.create ~capacity:64 () in
  let w0 = Obs.Trace.track tr "worker 0" in
  let w1 = Obs.Trace.track tr "worker 1" in
  let ra = Obs.Trace.intern tr "A" and rb = Obs.Trace.intern tr "B" in
  let emit ring ~at_ns e =
    let code, a, b = Obs.Event.encode e in
    Obs.Ring.emit ring ~code ~at_ns ~a ~b
  in
  emit w0 ~at_ns:1000 (Task_start { region = ra });
  emit w0 ~at_ns:2000 (Task_finish { region = ra });
  emit w0 ~at_ns:2000 (Task_start { region = rb });
  emit w0 ~at_ns:3000 (Task_finish { region = rb });
  emit w1 ~at_ns:1500 (Task_start { region = ra });
  emit w1 ~at_ns:2500 (Task_finish { region = ra });
  let prof = Obs.Profile.of_trace tr in
  check_string "source" "trace" prof.source;
  check_int "total work" 3000 prof.total_work;
  check_int "makespan" 2000 prof.total_span;
  let find name =
    List.find (fun (r : Obs.Profile.region) -> r.name = name) prof.regions
  in
  let a = find "A" and b = find "B" in
  check_int "A work" 2000 a.work;
  check_int "B work" 1000 b.work;
  check_int "A serialized span" 500 a.span;
  check_int "B serialized span" 500 b.span

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* GC census: the runtime's own event rings, per domain. *)

(* A 2-domain session whose iterations each allocate a 2 MB array
   straight into the major heap and sleep (so worker 1 steals some),
   then a forced minor collection while both workers are live. *)
let gc_session ?tracer () =
  ignore
    (Par.Runtime.run
       ~config:{ Par.Runtime.default_config with domains = 2; tracer }
       (fun () ->
         Par.Runtime.par_for ~lo:0 ~hi:16 (fun _ ->
             ignore (Sys.opaque_identity (Array.make 262144 0));
             Unix.sleepf 0.001);
         Gc.minor ()))

let ring0 rows =
  match List.find_opt (fun (r : Gc_census.row) -> r.ring = 0) rows with
  | Some r -> r
  | None -> Alcotest.fail "no row for ring 0 (the main domain)"

let test_gc_census_counts () =
  let census = Gc_census.create () in
  Gc_census.start census;
  let q0 = Gc.quick_stat () in
  gc_session ();
  let q1 = Gc.quick_stat () in
  Gc_census.stop census;
  let rows = Gc_census.rows census in
  let active =
    List.filter
      (fun (r : Gc_census.row) ->
        r.stw_leader.count + r.stw_handler.count + r.minor.count
        + r.major_slice.count
        > 0)
      rows
  in
  check "both session domains' rings took part" true (List.length active >= 2);
  List.iter
    (fun (r : Gc_census.row) ->
      let what = Printf.sprintf "ring %d" r.ring in
      check (what ^ " led or joined a stop-the-world section") true
        (r.stw_leader.count + r.stw_handler.count > 0);
      check (what ^ " ran minor collections") true (r.minor.count > 0);
      check (what ^ " phase times are non-negative") true
        (r.stw_leader.ns >= 0 && r.stw_handler.ns >= 0 && r.minor.ns >= 0
       && r.major_slice.ns >= 0 && r.gc_ns >= 0))
    active;
  (* every minor collection stops every domain, so the main domain's
     ring saw each one the process ran *)
  let main = ring0 rows in
  if main.lost = 0 then
    check_int "ring 0 minor count = Gc.quick_stat delta"
      (q1.minor_collections - q0.minor_collections)
      main.minor.count

let test_gc_census_idempotent () =
  let census = Gc_census.create () in
  Gc_census.stop census;
  check_int "a census never started has no rows" 0
    (List.length (Gc_census.rows census));
  Gc_census.start census;
  Gc_census.start census;
  Gc.minor ();
  Gc_census.stop census;
  let first = ring0 (Gc_census.rows census) in
  check "the forced minor collection was counted" true (first.minor.count >= 1);
  Gc_census.stop census;
  (* the rings are paused: collections now are never counted *)
  Gc.minor ();
  Gc.minor ();
  check "a second stop changes nothing" true
    (ring0 (Gc_census.rows census) = first);
  let other = Gc_census.create () in
  Gc_census.start census;
  (match Gc_census.start other with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a second census started while one runs");
  let q0 = Gc.quick_stat () in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  Gc_census.stop census;
  let again = ring0 (Gc_census.rows census) in
  if again.lost = first.lost then
    check_int "a restarted census counts only its own window"
      (q1.minor_collections - q0.minor_collections)
      (again.minor.count - first.minor.count);
  Gc_census.stop other

let test_gc_census_trace () =
  let tr = Obs.Trace.create () in
  let census = Gc_census.create ~tracer:tr () in
  Gc_census.start census;
  gc_session ~tracer:tr ();
  Gc_census.stop census;
  let events =
    match Stats.Json.of_string (Obs.Export.to_chrome_string tr) with
    | Ok (Stats.Json.Obj fields) -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Stats.Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents list")
    | Ok _ -> Alcotest.fail "trace is not a JSON object"
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let field k = function
    | Stats.Json.Obj f -> List.assoc_opt k f
    | _ -> None
  in
  let num k e =
    match field k e with
    | Some (Stats.Json.Int n) -> float_of_int n
    | Some (Stats.Json.Float x) -> x
    | _ -> Alcotest.failf "event without a numeric %s" k
  in
  let tid e = int_of_float (num "tid" e) in
  let gc_tracks =
    List.filter_map
      (fun e ->
        match (field "name" e, field "args" e) with
        | Some (Stats.Json.Str "thread_name"), Some args -> (
            match field "name" args with
            | Some (Stats.Json.Str n)
              when String.length n > 8 && String.sub n 0 8 = "gc ring " ->
                Some (tid e)
            | _ -> None)
        | _ -> None)
      events
  in
  check "one gc track per ring, at least two" true (List.length gc_tracks >= 2);
  let spans =
    List.filter (fun e -> field "cat" e = Some (Stats.Json.Str "gc")) events
  in
  check "the trace holds GC spans" true (spans <> []);
  List.iter
    (fun e -> check "a GC span sits on a gc track" true (List.mem (tid e) gc_tracks))
    spans;
  List.iter
    (fun track ->
      let on_track =
        List.sort compare
          (List.filter_map
             (fun e ->
               if tid e = track then Some (num "ts" e, num "dur" e) else None)
             spans)
      in
      let rec disjoint = function
        | (ts, dur) :: ((ts', _) :: _ as rest) ->
            (* stamps are whole ns printed in µs *)
            ts +. dur <= ts' +. 1e-3 && disjoint rest
        | _ -> true
      in
      check
        (Printf.sprintf "GC spans on track %d do not overlap" track)
        true (disjoint on_track))
    gc_tracks

let suite =
  ( "obs",
    [
      Alcotest.test_case "ring basics" `Quick test_ring_basics;
      Alcotest.test_case "ring overflow drops oldest" `Quick
        test_ring_overflow;
      Alcotest.test_case "ring capacity rounding" `Quick
        test_ring_capacity_rounding;
      Alcotest.test_case "event codec roundtrip" `Quick test_event_roundtrip;
      Alcotest.test_case "hist percentiles" `Quick test_hist_percentiles;
      Alcotest.test_case "hist empty and merge" `Quick
        test_hist_empty_and_merge;
      Alcotest.test_case "label interning" `Quick test_labels;
      Alcotest.test_case "trace drop accounting" `Quick
        test_trace_drop_accounting;
      Alcotest.test_case "runtime event invariants (rings)" `Quick
        test_ring_event_invariants;
      Alcotest.test_case "runtime ring invariants and export" `Quick
        test_ring_invariants_and_export;
      Alcotest.test_case "with_region labels promoted tasks" `Quick
        test_with_region;
      Alcotest.test_case "ring counts equal counters" `Quick
        test_ring_counts_equal_counters;
      Alcotest.test_case "tiny rings under load" `Quick
        test_tiny_rings_under_load;
      Alcotest.test_case "profile reconciles with eval cost" `Quick
        test_profile_reconciliation;
      Alcotest.test_case "profile what-if predictions" `Quick
        test_profile_what_if;
      Alcotest.test_case "profile from trace intervals" `Quick
        test_profile_of_trace;
      Alcotest.test_case "gc census: per-ring STW and minor counts" `Quick
        test_gc_census_counts;
      Alcotest.test_case "gc census: start and stop are idempotent" `Quick
        test_gc_census_idempotent;
      Alcotest.test_case "gc census: traced spans do not overlap" `Quick
        test_gc_census_trace;
    ] )
