(* The serving layer (lib/serve): the deterministic scheduling core on
   a virtual clock — admission backpressure, DRR fairness, EDF
   ordering, deadline accounting, promotion hints — plus the
   concurrent pool itself: warm-session execution, exactly-once under
   concurrent submission, the typed Pool_closed teardown, and the
   lease-watchdog degradation path.

   Every Sched test drives explicit [now] literals (no wall clock, no
   domains), so the policy checks are bit-reproducible on a 1-core CI
   host; the pool tests use a single-domain polling session plus
   control gates (atomics the test flips), never sleeps-as-
   synchronisation.  Awaits carry timeouts so a scheduler regression
   fails the test rather than hanging CI. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a request with only the fields the policy looks at *)
let req ?(size = 1) ?(enq = 0.) ~id ~tenant ~deadline () : unit Serve.Sched.req
    =
  { Serve.Sched.id; tenant; deadline; size; enqueued = enq; payload = () }

let sched ?(cap = 512) ?(quantum = 1) ?(panic = 0.) () : unit Serve.Sched.t =
  Serve.Sched.create
    ~config:{ Serve.Sched.cap; quantum; panic_slack = panic }
    ()

let admit_ok s r =
  match Serve.Sched.admit s r with
  | Ok () -> ()
  | Error `Queue_full -> Alcotest.fail "unexpected Queue_full"

let next_id s ~now =
  match Serve.Sched.next s ~now with
  | Some r -> r.Serve.Sched.id
  | None -> Alcotest.fail "next on non-empty scheduler returned None"

(* ------------------------------------------------------------------ *)
(* Admission control: cap reached -> reject; drain -> re-admit. *)

let test_admission_cap () =
  let s = sched ~cap:4 () in
  for i = 1 to 4 do
    admit_ok s (req ~id:i ~tenant:"a" ~deadline:1e9 ())
  done;
  check "cap reached rejects" true
    (Serve.Sched.admit s (req ~id:5 ~tenant:"a" ~deadline:1e9 ())
    = Error `Queue_full);
  (* a different tenant shares the same global cap *)
  check "cap is global across tenants" true
    (Serve.Sched.admit s (req ~id:6 ~tenant:"b" ~deadline:1e9 ())
    = Error `Queue_full);
  (* drain one -> admission re-opens *)
  let _ = next_id s ~now:0. in
  admit_ok s (req ~id:7 ~tenant:"a" ~deadline:1e9 ());
  check_int "queued at cap again" 4 (Serve.Sched.length s);
  let st = Serve.Sched.stats s in
  check_int "admitted" 5 st.admitted;
  check_int "rejected" 2 st.rejected

(* ------------------------------------------------------------------ *)
(* DRR fairness: 10:1 offered load, ~1:1 served share while both
   tenants stay backlogged.  Fails if the dequeue is FIFO (tenant a
   would take the first 100 slots) or tenant-blind. *)

let test_drr_fairness () =
  let s = sched () in
  let id = ref 0 in
  let admit tenant =
    incr id;
    admit_ok s (req ~id:!id ~tenant ~deadline:1e9 ())
  in
  for _ = 1 to 100 do
    admit "a"
  done;
  for _ = 1 to 10 do
    admit "b"
  done;
  (* serve 20 while both are backlogged: DRR alternates, so b gets
     ~10 of the first 20 despite offering 10x less *)
  let served_a = ref 0 and served_b = ref 0 in
  for _ = 1 to 20 do
    let r =
      match Serve.Sched.next s ~now:0. with
      | Some r -> r
      | None -> Alcotest.fail "ran dry"
    in
    if r.Serve.Sched.tenant = "a" then incr served_a else incr served_b
  done;
  check
    (Printf.sprintf "served share within tolerance (a=%d b=%d)" !served_a
       !served_b)
    true
    (abs (!served_a - !served_b) <= 2);
  check "b not starved" true (!served_b >= 8);
  (* once b drains, a gets full service *)
  let remaining = ref 0 in
  let rec drain () =
    match Serve.Sched.next s ~now:0. with
    | Some _ ->
        incr remaining;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "nothing lost" 110 (20 + !remaining)

(* Size-weighted DRR: with equal offered requests but 4x sizes, the
   small-request tenant is served ~4x as often (byte-fairness, not
   request-fairness). *)
let test_drr_size_weighting () =
  let s = sched ~quantum:1 () in
  let id = ref 0 in
  let admit tenant size =
    incr id;
    admit_ok s (req ~size ~id:!id ~tenant ~deadline:1e9 ())
  in
  for _ = 1 to 40 do
    admit "big" 4;
    admit "small" 1
  done;
  let served_big = ref 0 and served_small = ref 0 in
  for _ = 1 to 25 do
    let r =
      match Serve.Sched.next s ~now:0. with
      | Some r -> r
      | None -> Alcotest.fail "ran dry"
    in
    if r.Serve.Sched.tenant = "big" then incr served_big else incr served_small
  done;
  check
    (Printf.sprintf "size-units balanced (big=%d small=%d)" !served_big
       !served_small)
    true
    (!served_small >= 3 * !served_big)

(* ------------------------------------------------------------------ *)
(* EDF: a tight-deadline request overtakes FIFO order within its
   tenant.  Fails if the per-tenant queue is FIFO. *)

let test_edf_order () =
  let s = sched () in
  admit_ok s (req ~id:1 ~tenant:"a" ~deadline:10. ());
  admit_ok s (req ~id:2 ~tenant:"a" ~deadline:1. ());
  admit_ok s (req ~id:3 ~tenant:"a" ~deadline:5. ());
  check_int "earliest deadline first" 2 (next_id s ~now:0.);
  check_int "then the middle one" 3 (next_id s ~now:0.);
  check_int "FIFO-earliest last" 1 (next_id s ~now:0.);
  (* deadline ties break FIFO by id *)
  admit_ok s (req ~id:4 ~tenant:"a" ~deadline:7. ());
  admit_ok s (req ~id:5 ~tenant:"a" ~deadline:7. ());
  check_int "tie breaks FIFO" 4 (next_id s ~now:0.);
  check_int "tie breaks FIFO (2)" 5 (next_id s ~now:0.)

(* Panic override: an imminent deadline bypasses the round-robin turn
   (its tenant still pays deficit), then normal DRR resumes. *)
let test_edf_panic_override () =
  let s = sched ~panic:0.5 () in
  for i = 1 to 5 do
    admit_ok s (req ~id:i ~tenant:"a" ~deadline:1e9 ())
  done;
  admit_ok s (req ~id:10 ~tenant:"b" ~deadline:2.0 ());
  (* b joined the ring last, but its head is within panic slack of
     now=1.6 (slack 0.4 <= 0.5) *)
  check_int "imminent deadline overrides DRR" 10 (next_id s ~now:1.6);
  check "then back to a" true (next_id s ~now:1.6 < 10)

(* ------------------------------------------------------------------ *)
(* Deadline-miss accounting. *)

let test_deadline_accounting () =
  let s = sched () in
  let r1 = req ~id:1 ~tenant:"a" ~deadline:10. () in
  let r2 = req ~id:2 ~tenant:"a" ~deadline:10. () in
  admit_ok s r1;
  admit_ok s r2;
  let _ = next_id s ~now:0. and _ = next_id s ~now:0. in
  check "on time" true (Serve.Sched.complete s ~now:9.9 r1 = `Met);
  check "late" true (Serve.Sched.complete s ~now:10.1 r2 = `Missed);
  let st = Serve.Sched.stats s in
  check_int "met" 1 st.met;
  check_int "missed" 1 st.missed;
  check_int "served" 2 st.served

(* ------------------------------------------------------------------ *)
(* Promotion hint: 0 with plentiful slack, rising as the remaining
   budget fraction halves, capped at 6, monotone in elapsed time. *)

let test_promotion_hint () =
  let r = req ~id:1 ~tenant:"a" ~enq:0. ~deadline:100. () in
  let hint now = Serve.Sched.promotion_hint ~now r in
  check_int "fresh request" 0 (hint 0.);
  check_int "3/4 budget left" 0 (hint 25.);
  check_int "half budget left" 1 (hint 50.);
  check_int "1/10 budget left" 3 (hint 90.);
  check_int "overdue" 6 (hint 101.);
  let prev = ref (-1) in
  for t = 0 to 120 do
    let h = hint (float_of_int t) in
    check (Printf.sprintf "monotone at t=%d" t) true (h >= !prev);
    check (Printf.sprintf "clamped at t=%d" t) true (h >= 0 && h <= 6);
    prev := h
  done

(* ------------------------------------------------------------------ *)
(* The pool: warm single-domain session, submit/await round trips. *)

let pool_config ?(cap = 512) ?(lease_s = 0.) ?(domains = 1) () :
    Serve.Pool.config =
  {
    Serve.Pool.default_config with
    runtime =
      {
        Par.Runtime.default_config with
        domains;
        heart_us = 100.;
      };
    sched = { Serve.Sched.default_config with cap };
    lease_s;
  }

let test_pool_basic () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let tickets =
    List.init 20 (fun i ->
        let work =
          Serve.Pool.Thunk
            (fun (module E : Workloads.Exec.S) ->
              let acc = Array.make 64 0 in
              E.par_for ~lo:0 ~hi:64 (fun j -> acc.(j) <- (i * 64) + j);
              Array.fold_left ( + ) 0 acc)
        in
        match Serve.Pool.submit pool ~tenant:(Printf.sprintf "t%d" (i mod 3))
                work
        with
        | Ok t -> (i, t)
        | Error _ -> Alcotest.failf "submit %d rejected" i)
  in
  List.iter
    (fun (i, t) ->
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum c; _ } ->
          let expected = (64 * 64 * i) + (63 * 64 / 2) in
          check_int (Printf.sprintf "checksum %d" i) expected c
      | Ok _ -> Alcotest.fail "unexpected outcome kind"
      | Error _ -> Alcotest.failf "request %d errored" i)
    tickets;
  let st = Serve.Pool.close pool in
  check_int "all served" 20 st.served;
  check_int "none queued" 0 st.queued;
  check_int "deadline classification total" 20 (st.met + st.missed);
  check "runtime stats surfaced at close" true (st.runtime <> None)

(* A registry kernel through the pool equals its serial checksum. *)
let test_pool_kernel () =
  let b =
    match Workloads.Real_bench.find "plus_reduce" with
    | Some b -> b
    | None -> Alcotest.fail "plus_reduce missing from the registry"
  in
  let expected = Workloads.Real_bench.run_serial b ~scale:1 in
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let t =
    match
      Serve.Pool.submit pool ~tenant:"k"
        (Serve.Pool.Kernel { bench = b; scale = 1 })
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "kernel submit rejected"
  in
  (match Serve.Pool.await ~timeout_s:60. pool t with
  | Ok { outcome = Serve.Pool.Checksum c; _ } ->
      check_int "kernel checksum matches serial" expected c
  | Ok _ -> Alcotest.fail "unexpected outcome kind"
  | Error _ -> Alcotest.fail "kernel request errored");
  ignore (Serve.Pool.close pool)

(* The Serve_exec oracle in tier-1: seeded TPAL programs through the
   whole serving path are bit-identical to the sequential evaluator. *)
let test_serve_exec_oracle () =
  for seed = 1 to 5 do
    let g = Fuzz.Gen.generate ~seed in
    match Serve.Serve_exec.check ~domains:[ 1; 2 ] g.prog ~outputs:g.outputs
    with
    | [] -> ()
    | ds ->
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; "
             (List.map
                (fun (d : Fuzz.Diff.divergence) ->
                  "[" ^ d.oracle ^ "] " ^ d.detail)
                ds))
  done

(* ------------------------------------------------------------------ *)
(* Backpressure at the pool boundary: fill the queue behind a gated
   request, observe the typed rejection, drain, re-admit. *)

let spin_until ?(timeout_s = 30.) (what : string) (p : unit -> bool) : unit =
  let t0 = Mclock.now_s () in
  let rec go () =
    if p () then ()
    else if Mclock.now_s () -. t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let gated () =
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let work =
    Serve.Pool.Thunk
      (fun (module E : Workloads.Exec.S) ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done;
        42)
  in
  (gate, started, work)

let quick_thunk v = Serve.Pool.Thunk (fun _ -> v)

let test_pool_backpressure () =
  let pool = Serve.Pool.create ~config:(pool_config ~cap:2 ()) () in
  let gate, started, work = gated () in
  let t1 =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "gated submit rejected"
  in
  (* wait until the gated request is IN FLIGHT (out of the queue), so
     the cap below is exercised deterministically *)
  spin_until "gated request to start" (fun () -> Atomic.get started);
  let t2 = Serve.Pool.submit pool ~tenant:"a" (quick_thunk 2) in
  let t3 = Serve.Pool.submit pool ~tenant:"b" (quick_thunk 3) in
  check "queue holds cap requests" true
    (match (t2, t3) with Ok _, Ok _ -> true | _ -> false);
  (match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 4) with
  | Error (Serve.Pool.Rejected `Queue_full) -> ()
  | Ok _ -> Alcotest.fail "cap+1 submit was admitted"
  | Error _ -> Alcotest.fail "cap+1 submit failed with the wrong error");
  Atomic.set gate true;
  (match Serve.Pool.await ~timeout_s:30. pool t1 with
  | Ok { outcome = Serve.Pool.Checksum 42; _ } -> ()
  | _ -> Alcotest.fail "gated request did not complete");
  List.iter
    (fun t ->
      match t with
      | Ok t -> (
          match Serve.Pool.await ~timeout_s:30. pool t with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "queued request errored")
      | Error _ -> ())
    [ t2; t3 ];
  (* drained: admission re-opens *)
  (match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 5) with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum 5; _ } -> ()
      | _ -> Alcotest.fail "re-admitted request did not complete")
  | Error _ -> Alcotest.fail "re-admission after drain rejected");
  let st = Serve.Pool.close pool in
  check_int "one backpressure rejection" 1 st.sched.rejected

(* ------------------------------------------------------------------ *)
(* The Pool_closed regression: closing with requests still queued
   resolves them with the typed error — the in-flight one finishes,
   nothing hangs, nothing races domain teardown. *)

let test_pool_closed_typed () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let gate, started, work = gated () in
  let t1 =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "gated submit rejected"
  in
  spin_until "gated request to start" (fun () -> Atomic.get started);
  let t2 =
    match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 2) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "queued submit rejected"
  in
  let t3 =
    match Serve.Pool.submit pool ~tenant:"b" (quick_thunk 3) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "queued submit rejected"
  in
  (* release the gate shortly after close starts waiting on the
     in-flight request *)
  let releaser =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Atomic.set gate true)
      ()
  in
  let st = Serve.Pool.close pool in
  Thread.join releaser;
  (* the in-flight request finished; the queued ones were resolved
     with the typed error, not executed, not leaked *)
  (match Serve.Pool.await pool t1 with
  | Ok { outcome = Serve.Pool.Checksum 42; _ } -> ()
  | _ -> Alcotest.fail "in-flight request did not finish across close");
  List.iter
    (fun t ->
      match Serve.Pool.await pool t with
      | Error Serve.Pool.Pool_closed -> ()
      | Ok _ -> Alcotest.fail "queued request executed after close"
      | Error _ -> Alcotest.fail "queued request got the wrong error")
    [ t2; t3 ];
  check_int "cancelled count" 2 st.cancelled;
  check_int "served count" 1 st.served;
  (* submissions after close get the typed error too *)
  match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 9) with
  | Error Serve.Pool.Pool_closed -> ()
  | _ -> Alcotest.fail "submit after close was not Pool_closed"

(* ------------------------------------------------------------------ *)
(* Concurrent-submit stress: N submitter threads x M requests against
   one pool; every request executes exactly once (per-request
   counters), all checksums verify, and the pool quiesces with empty
   queues.  Awaits are bounded so a scheduler regression fails here
   instead of hanging CI. *)

(* The pool's own latency histograms: every completion lands in the
   all-tenants histogram and its tenant's, the percentile digest is
   ordered, and the load report carries both through. *)
let test_latency_histograms () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let spec =
    {
      Serve.Load.default_spec with
      requests = 300;
      tenants = 3;
      rate_rps = 0.;
      (* submit as fast as possible: keep the test quick *)
    }
  in
  let report = Serve.Load.run pool spec in
  ignore (Serve.Pool.close pool);
  check_int "audit clean" 0
    (report.lost + report.duplicated + report.mismatched);
  let lat = report.pool_latency in
  check_int "histogram saw every completion" report.completed lat.count;
  check "digest ordered" true
    (lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.p99_ms
   && lat.p99_ms <= lat.max_ms);
  check "positive latency" true (lat.p50_ms > 0.);
  check "per-tenant histograms present" true
    (List.length report.latency_per_tenant > 0);
  let tenant_total =
    List.fold_left
      (fun acc ((_, s) : string * Obs.Hist.summary) -> acc + s.count)
      0 report.latency_per_tenant
  in
  check_int "tenant histograms partition completions" report.completed
    tenant_total;
  List.iter
    (fun ((_, s) : string * Obs.Hist.summary) ->
      check "tenant digest ordered" true
        (s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms))
    report.latency_per_tenant

let test_concurrent_stress () =
  let n_threads = 4 and per_thread = 100 in
  let total = n_threads * per_thread in
  let pool = Serve.Pool.create ~config:(pool_config ~cap:(2 * total) ()) () in
  let exec_counts = Array.init total (fun _ -> Atomic.make 0) in
  let tickets = Array.make total None in
  let submitters =
    Array.init n_threads (fun tid ->
        Thread.create
          (fun () ->
            for j = 0 to per_thread - 1 do
              let idx = (tid * per_thread) + j in
              let counter = exec_counts.(idx) in
              let work =
                Serve.Pool.Thunk
                  (fun _ ->
                    Atomic.incr counter;
                    idx)
              in
              match
                Serve.Pool.submit pool
                  ~tenant:(Printf.sprintf "t%d" tid)
                  work
              with
              | Ok t -> tickets.(idx) <- Some t
              | Error _ -> () (* cap is 2x total: must not happen *)
            done)
          ())
  in
  Array.iter Thread.join submitters;
  Array.iteri
    (fun idx ticket ->
      match ticket with
      | None -> Alcotest.failf "request %d was rejected under the cap" idx
      | Some t -> (
          match Serve.Pool.await ~timeout_s:60. pool t with
          | Ok { outcome = Serve.Pool.Checksum c; _ } ->
              check_int (Printf.sprintf "checksum %d" idx) idx c
          | Ok _ -> Alcotest.fail "unexpected outcome kind"
          | Error Serve.Pool.Timed_out ->
              Alcotest.failf "request %d stuck: scheduler regression" idx
          | Error _ -> Alcotest.failf "request %d errored" idx))
    tickets;
  Array.iteri
    (fun idx c ->
      check_int
        (Printf.sprintf "request %d executed exactly once" idx)
        1 (Atomic.get c))
    exec_counts;
  let st = Serve.Pool.close pool in
  check_int "all served" total st.served;
  check_int "quiesced: empty queues" 0 st.queued;
  check_int "no cancellations" 0 st.cancelled;
  check_int "no failures" 0 st.failures

(* ------------------------------------------------------------------ *)
(* The lease watchdog: a wedged request degrades the pool (typed
   shedding), the stall is counted, and completion clears the
   degradation. *)

let test_watchdog_degradation () =
  let pool =
    Serve.Pool.create ~config:(pool_config ~lease_s:0.05 ()) ()
  in
  let gate, started, work = gated () in
  let t1 =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "gated submit rejected"
  in
  spin_until "gated request to start" (fun () -> Atomic.get started);
  spin_until "watchdog to flag the stall" (fun () ->
      (Serve.Pool.stats pool).stalls_detected >= 1);
  check "pool degraded while wedged" true (Serve.Pool.stats pool).degraded;
  (match Serve.Pool.submit pool ~tenant:"b" (quick_thunk 1) with
  | Error (Serve.Pool.Rejected `Shedding) -> ()
  | Ok _ -> Alcotest.fail "degraded pool admitted new work"
  | Error _ -> Alcotest.fail "degraded pool rejected with the wrong error");
  Atomic.set gate true;
  (match Serve.Pool.await ~timeout_s:30. pool t1 with
  | Ok { outcome = Serve.Pool.Checksum 42; _ } -> ()
  | _ -> Alcotest.fail "wedged request did not recover");
  spin_until "degradation to clear" (fun () ->
      not (Serve.Pool.stats pool).degraded);
  (match Serve.Pool.submit pool ~tenant:"b" (quick_thunk 2) with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum 2; _ } -> ()
      | _ -> Alcotest.fail "post-recovery request did not complete")
  | Error _ -> Alcotest.fail "recovered pool still shedding");
  let st = Serve.Pool.close pool in
  check "stall stayed on the books" true (st.stalls_detected >= 1);
  check "not degraded at close" false st.degraded

(* ------------------------------------------------------------------ *)
(* Cancellation, retry and warm-restart: the chaos-hardening PR's
   serving-layer edges. *)

(* Sched.cancel as a pure policy operation: surgical removal, heap
   rebuilt, unknown ids refused. *)
let test_sched_cancel () =
  let s = sched () in
  admit_ok s (req ~id:1 ~tenant:"a" ~deadline:1e9 ());
  admit_ok s (req ~id:2 ~tenant:"a" ~deadline:1e9 ());
  admit_ok s (req ~id:3 ~tenant:"b" ~deadline:1e9 ());
  (match Serve.Sched.cancel s ~id:2 with
  | Some r -> check_int "cancel returns the victim" 2 r.Serve.Sched.id
  | None -> Alcotest.fail "queued request not found by cancel");
  check_int "length shrinks" 2 (Serve.Sched.length s);
  check "unknown id refused" true (Serve.Sched.cancel s ~id:99 = None);
  check "cancelled id not re-cancellable" true
    (Serve.Sched.cancel s ~id:2 = None);
  (* the survivors still dispatch, and 2 never does *)
  let a = next_id s ~now:0. in
  let b = next_id s ~now:0. in
  check "victim never dispatches" true
    (a <> 2 && b <> 2 && List.sort compare [ a; b ] = [ 1; 3 ]);
  check "drained" true (Serve.Sched.next s ~now:0. = None)

(* Deterministic exponential backoff with jitter: pure, seeded,
   monotone in attempt, clamped. *)
let test_backoff () =
  let b ~attempt =
    Serve.Sched.backoff_s ~base_s:0.001 ~max_s:10. ~seed:7 ~id:3 ~attempt
  in
  check "deterministic" true (b ~attempt:1 = b ~attempt:1);
  check "different attempts differ" true (b ~attempt:1 <> b ~attempt:2);
  (* jitter multiplier lives in [0.5, 1.0]: attempt n is bounded by
     base·2^(n-1), and 3 doublings always dominate one halving *)
  for n = 1 to 8 do
    let v = b ~attempt:n in
    let expo = 0.001 *. (2. ** float_of_int (n - 1)) in
    check (Printf.sprintf "attempt %d in [expo/2, expo]" n) true
      (v >= (expo /. 2.) -. 1e-12 && v <= expo +. 1e-12)
  done;
  check "monotone across 3 doublings" true (b ~attempt:4 > b ~attempt:1);
  check "clamped to max_s" true
    (Serve.Sched.backoff_s ~base_s:1. ~max_s:0.05 ~seed:0 ~id:0 ~attempt:30
    = 0.05)

(* Cancel while queued: the victim resolves with the typed error
   without ever executing; the pool keeps serving. *)
let test_cancel_queued () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let gate, started, work = gated () in
  let t1 =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "gated submit rejected"
  in
  spin_until "gated request to start" (fun () -> Atomic.get started);
  let ran = Atomic.make false in
  let t2 =
    match
      Serve.Pool.submit pool ~tenant:"a"
        (Serve.Pool.Thunk
           (fun _ ->
             Atomic.set ran true;
             2))
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "queued submit rejected"
  in
  check "queued cancel lands" true (Serve.Pool.cancel pool t2);
  check "second cancel is a no-op" false (Serve.Pool.cancel pool t2);
  (match Serve.Pool.await pool t2 with
  | Error (Serve.Pool.Cancelled `Explicit) -> ()
  | Ok _ -> Alcotest.fail "cancelled request completed"
  | Error _ -> Alcotest.fail "cancelled request got the wrong error");
  Atomic.set gate true;
  (match Serve.Pool.await ~timeout_s:30. pool t1 with
  | Ok { outcome = Serve.Pool.Checksum 42; _ } -> ()
  | _ -> Alcotest.fail "gated request did not complete");
  check "victim never executed" false (Atomic.get ran);
  let st = Serve.Pool.close pool in
  check_int "one cooperative cancel" 1 st.cancels;
  check_int "one served" 1 st.served

(* Cancel mid-strip: a cooperatively-polling request (par_for through
   the session) unwinds at a beat boundary with the typed reason. *)
let test_cancel_in_flight () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let started = Atomic.make false in
  let work =
    Serve.Pool.Thunk
      (fun (module E : Workloads.Exec.S) ->
        Atomic.set started true;
        (* ~100 s of strip-mined work: cancellation must cut it short
           at a poll, or the bounded await below fails the test *)
        E.par_for ~lo:0 ~hi:1_000_000 (fun _ -> Unix.sleepf 0.0001);
        0)
  in
  let t =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  spin_until "request to start" (fun () -> Atomic.get started);
  check "in-flight cancel lands" true (Serve.Pool.cancel pool t);
  (match Serve.Pool.await ~timeout_s:30. pool t with
  | Error (Serve.Pool.Cancelled `Explicit) -> ()
  | Ok _ -> Alcotest.fail "cancelled loop ran to completion"
  | Error _ -> Alcotest.fail "cancelled loop got the wrong error");
  (* the session survived the unwinding *)
  (match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 7) with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum 7; _ } -> ()
      | _ -> Alcotest.fail "post-cancel request did not complete")
  | Error _ -> Alcotest.fail "post-cancel submit rejected");
  let st = Serve.Pool.close pool in
  check_int "one cancel on the books" 1 st.cancels

(* A timeout racing completion, both directions: an await that expires
   leaves the ticket open for a later await to win. *)
let test_timeout_races_completion () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let gate, started, work = gated () in
  let t =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  spin_until "request to start" (fun () -> Atomic.get started);
  (match Serve.Pool.await ~timeout_s:0.05 pool t with
  | Error Serve.Pool.Timed_out -> ()
  | Ok _ -> Alcotest.fail "gated request completed early"
  | Error _ -> Alcotest.fail "expired await got the wrong error");
  Atomic.set gate true;
  (match Serve.Pool.await ~timeout_s:30. pool t with
  | Ok { outcome = Serve.Pool.Checksum 42; _ } -> ()
  | _ -> Alcotest.fail "second await did not see the completion");
  (* completion first: a generous timeout returns Ok, not Timed_out *)
  (match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 5) with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum 5; _ } -> ()
      | _ -> Alcotest.fail "quick request lost to its timeout")
  | Error _ -> Alcotest.fail "quick submit rejected");
  ignore (Serve.Pool.close pool)

let retry_config ~retries () =
  { (pool_config ()) with Serve.Pool.retries = retries }

(* A transient injected fault with budget left: the request is
   re-admitted under the same ticket (idempotent), backs off, and the
   second attempt resolves it — exactly-once for the awaiter. *)
let test_retry_recovers () =
  let pool = Serve.Pool.create ~config:(retry_config ~retries:2 ()) () in
  let attempts = Atomic.make 0 in
  let work =
    Serve.Pool.Thunk
      (fun _ ->
        if Atomic.fetch_and_add attempts 1 = 0 then
          raise (Par.Chaos.Injected { domain = 0; beat = 0 });
        17)
  in
  let t =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  (match Serve.Pool.await ~timeout_s:30. pool t with
  | Ok { outcome = Serve.Pool.Checksum 17; _ } -> ()
  | Ok _ -> Alcotest.fail "unexpected outcome kind"
  | Error _ -> Alcotest.fail "retried request did not recover");
  check_int "two attempts ran" 2 (Atomic.get attempts);
  let st = Serve.Pool.close pool in
  check_int "one retry on the books" 1 st.retried;
  check_int "no failures" 0 st.failures;
  (* sched-level [served] counts dispatches (it feeds the DRR share
     accounting), so the retried attempt shows up there — while the
     awaiter above saw exactly one resolution *)
  check_int "both attempts dispatched" 2 st.served

(* Budget exhaustion: a permanently-failing request burns the tenant's
   budget and resolves with the typed Retry_exhausted, not a hang. *)
let test_retry_budget_exhaustion () =
  let pool = Serve.Pool.create ~config:(retry_config ~retries:1 ()) () in
  let attempts = Atomic.make 0 in
  let work =
    Serve.Pool.Thunk
      (fun _ ->
        Atomic.incr attempts;
        raise (Par.Chaos.Injected { domain = 0; beat = 0 }))
  in
  let t =
    match Serve.Pool.submit pool ~tenant:"a" work with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  (match Serve.Pool.await ~timeout_s:30. pool t with
  | Error (Serve.Pool.Retry_exhausted { attempts = n }) ->
      check_int "typed rejection counts the attempts" 2 n
  | Ok _ -> Alcotest.fail "doomed request completed"
  | Error _ -> Alcotest.fail "doomed request got the wrong error");
  check_int "budget bounded the attempts" 2 (Atomic.get attempts);
  let st = Serve.Pool.close pool in
  check_int "one retry spent" 1 st.retried;
  check_int "one failure" 1 st.failures

(* Lease-based recovery, the full loop: a Machine_fault kills the warm
   session; the pool resolves the victim with the typed error,
   warm-restarts, and serves queued work on the fresh session. *)
let test_warm_restart () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let boom = Par.Runtime.Machine_fault (Tpal.Machine_error.Halted) in
  let t1 =
    match
      Serve.Pool.submit pool ~tenant:"a"
        (Serve.Pool.Thunk (fun _ -> raise boom))
    with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  (match Serve.Pool.await ~timeout_s:30. pool t1 with
  | Error (Serve.Pool.Failed (Par.Runtime.Machine_fault _)) -> ()
  | Ok _ -> Alcotest.fail "faulting request completed"
  | Error _ -> Alcotest.fail "faulting request got the wrong error");
  (* the restarted session serves — repeatedly, to show it is warm *)
  for i = 1 to 3 do
    match Serve.Pool.submit pool ~tenant:"b" (quick_thunk i) with
    | Ok t -> (
        match Serve.Pool.await ~timeout_s:30. pool t with
        | Ok { outcome = Serve.Pool.Checksum c; _ } ->
            check_int "post-restart checksum" i c
        | _ -> Alcotest.fail "post-restart request did not complete")
    | Error _ -> Alcotest.fail "post-restart submit rejected"
  done;
  let st = Serve.Pool.close pool in
  check_int "one warm restart" 1 st.restarts;
  check_int "one failure (the victim)" 1 st.failures;
  (* dispatch count survives the restart: the victim plus the three
     post-restart requests *)
  check_int "dispatches include the victim" 4 st.served

(* A request that keeps polling past its lease is cancelled by the
   watchdog at its next poll, and the pool serves on. *)
let test_lease_cancels_polling_request () =
  let pool = Serve.Pool.create ~config:(pool_config ~lease_s:0.05 ()) () in
  let work =
    Serve.Pool.Thunk
      (fun (module E : Workloads.Exec.S) ->
        (* ~100 s of polling work: only the lease can end it in time *)
        E.par_for ~lo:0 ~hi:1_000_000 (fun _ -> Unix.sleepf 0.0001);
        0)
  in
  (match Serve.Pool.submit pool ~tenant:"a" work with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Error (Serve.Pool.Cancelled `Lease) -> ()
      | Ok _ -> Alcotest.fail "leased-out request ran to completion"
      | Error e -> Alcotest.failf "leased-out request: %a" Serve.Pool.pp_error e)
  | Error _ -> Alcotest.fail "submit rejected");
  (match Serve.Pool.submit pool ~tenant:"b" (quick_thunk 3) with
  | Ok t -> (
      match Serve.Pool.await ~timeout_s:30. pool t with
      | Ok { outcome = Serve.Pool.Checksum 3; _ } -> ()
      | _ -> Alcotest.fail "request after the lease cancel did not complete")
  | Error _ -> Alcotest.fail "pool shed work after the lease cancel");
  let st = Serve.Pool.close pool in
  check "the stall counted" true (st.stalls_detected >= 1);
  check_int "one cancel" 1 st.cancels

(* A pool restarts its session once: a second Machine_fault fails it
   over, resolving the victim [Failed] and refusing later submits. *)
let test_second_fault_fails_over () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  let fault () =
    match
      Serve.Pool.submit pool ~tenant:"a"
        (Serve.Pool.Thunk
           (fun _ -> raise (Par.Runtime.Machine_fault Tpal.Machine_error.Halted)))
    with
    | Error _ -> Alcotest.fail "submit rejected"
    | Ok t -> (
        match Serve.Pool.await ~timeout_s:30. pool t with
        | Error (Serve.Pool.Failed (Par.Runtime.Machine_fault _)) -> ()
        | Ok _ -> Alcotest.fail "faulting request completed"
        | Error e -> Alcotest.failf "faulting request: %a" Serve.Pool.pp_error e)
  in
  fault ();
  fault ();
  (match Serve.Pool.submit pool ~tenant:"b" (quick_thunk 1) with
  | Error (Serve.Pool.Failed (Par.Runtime.Machine_fault _)) -> ()
  | Ok _ -> Alcotest.fail "a failed-over pool admitted work"
  | Error e -> Alcotest.failf "submit after fail-over: %a" Serve.Pool.pp_error e);
  let st = Serve.Pool.close pool in
  check_int "one warm restart" 1 st.restarts;
  check_int "both victims failed" 2 st.failures

(* ------------------------------------------------------------------ *)
(* Per-ticket memory: a result is read once, and nothing the serving
   layer keeps grows with the number of requests served. *)

(* Answer orders with a bounded out-of-order window: ticket i is
   answered at its rank by the key i + jitter, jitter < w, so a ticket
   answered ahead of the watermark lies within w of it.  Each answer is
   kept for one read or, as a hook delivers it, not kept.  Between
   answers, an already-answered ticket may be answered again (which
   must keep nothing), and a ticket in or just outside the issued range
   is taken. *)
let prop_answered =
  QCheck.Test.make ~name:"answered: agrees with a Hashtbl, size within the window"
    ~count:300
    QCheck.(triple (int_range 1 300) (int_range 1 20) int)
    (fun (n, w, seed) ->
      let rng = Random.State.make [| seed |] in
      let order =
        List.init n (fun i -> (i + Random.State.int rng w, i))
        |> List.sort compare |> List.map snd
      in
      let a = Serve.Answered.create () in
      (* answered tickets: [Some v] while v is unread, else [None] *)
      let spec : (int, int option) Hashtbl.t = Hashtbl.create 16 in
      let resolve k =
        let fresh = not (Hashtbl.mem spec k) in
        let answer = if Random.State.bool rng then Some (Random.State.bits rng) else None in
        if fresh then Hashtbl.replace spec k answer;
        Serve.Answered.resolve a k answer = fresh
        && Serve.Answered.mem a k
        && Serve.Answered.count a = Hashtbl.length spec
        && Serve.Answered.size a < w
      in
      let take k =
        let expect =
          match Hashtbl.find_opt spec k with
          | Some (Some v) ->
              Hashtbl.replace spec k None;
              `Value v
          | Some None -> `Delivered
          | None -> `Pending
        in
        Serve.Answered.take a k = expect
        && Serve.Answered.mem a k = Hashtbl.mem spec k
      in
      let answered = Array.make n 0 and na = ref 0 in
      let all = List.init (n + 4) (fun k -> k - 2) in
      List.for_all
        (fun k ->
          answered.(!na) <- k;
          incr na;
          resolve k
          && (Random.State.int rng 3 > 0
             || resolve answered.(Random.State.int rng !na))
          && take (Random.State.int rng (n + 4) - 2))
        order
      && Serve.Answered.size a = 0
      && List.for_all take (all @ all))

(* Admit a request whose payload is a 100,000-element array; return a
   weak pointer to the array.  Out of line, so no stack slot of the
   caller holds the array. *)
let[@inline never] admit_heavy (s : int array Serve.Sched.t) ~(id : int) :
    int array Weak.t =
  let a = Array.make 100_000 id in
  let w = Weak.create 1 in
  Weak.set w 0 (Some a);
  (match
     Serve.Sched.admit s
       { Serve.Sched.id; tenant = "t"; deadline = 1.; size = 1; enqueued = 0.;
         payload = a }
   with
  | Ok () -> ()
  | Error `Queue_full -> Alcotest.fail "unexpected Queue_full");
  w

let test_sched_releases_payloads () =
  let s : int array Serve.Sched.t = Serve.Sched.create () in
  let gone what w =
    Gc.full_major ();
    check what false (Weak.check w 0)
  in
  let w = admit_heavy s ~id:0 in
  (match Serve.Sched.next s ~now:0. with
  | Some _ -> ()
  | None -> Alcotest.fail "next on a non-empty scheduler returned None");
  gone "a served request is unreachable" w;
  let w = admit_heavy s ~id:1 in
  ignore (admit_heavy s ~id:2 : int array Weak.t);
  ignore (Serve.Sched.drain s : int array Serve.Sched.req list);
  gone "a drained request is unreachable" w;
  let w = admit_heavy s ~id:3 in
  ignore (admit_heavy s ~id:4 : int array Weak.t);
  ignore (Serve.Sched.cancel s ~id:3 : int array Serve.Sched.req option);
  gone "a cancelled request is unreachable" w

let test_pool_reads_once () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  Fun.protect ~finally:(fun () -> ignore (Serve.Pool.close pool)) @@ fun () ->
  let submit ?on_resolve v =
    match Serve.Pool.submit pool ~tenant:"a" ?on_resolve (quick_thunk v) with
    | Ok t -> t
    | Error _ -> Alcotest.fail "submit rejected"
  in
  let read what r v =
    match r with
    | Ok { Serve.Pool.outcome = Serve.Pool.Checksum c; _ } when c = v -> ()
    | _ -> Alcotest.failf "%s: expected checksum %d" what v
  in
  let delivered what r =
    check what true (r = Error Serve.Pool.Delivered)
  in
  let t = submit 3 in
  read "first await" (Serve.Pool.await ~timeout_s:30. pool t) 3;
  delivered "repeat await"
    (Checks.at_once "repeat await" (fun () -> Serve.Pool.await ~timeout_s:5. pool t));
  check "try_result after the read" true
    (Serve.Pool.try_result pool t = Some (Error Serve.Pool.Delivered));
  check "cancel of a read ticket misses" false (Serve.Pool.cancel pool t);
  Checks.at_once "await of a ticket never issued" (fun () ->
      match Serve.Pool.await ~timeout_s:2. pool (t + 1000) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "await of a ticket never issued did not raise");
  (match Serve.Pool.try_result pool (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "try_result of a negative ticket did not raise");
  (* a hook ticket: the hook fires, the result is still there for one
     read, and cancel misses once it has resolved *)
  let hooked = Atomic.make false in
  let h = submit ~on_resolve:(fun _ -> Atomic.set hooked true) 4 in
  spin_until "the hook to fire" (fun () -> Atomic.get hooked);
  check "cancel of a delivered hook ticket misses" false
    (Serve.Pool.cancel pool h);
  read "read of a hook ticket" (Serve.Pool.await ~timeout_s:30. pool h) 4;
  delivered "second read of a hook ticket"
    (Checks.at_once "second read" (fun () -> Serve.Pool.await pool h))

(* Each ticket awaited once, 64 in flight: the live heap after 200,000
   requests is the live heap after 20,000, within 50,000 words. *)
let test_pool_memory_flat () =
  let pool = Serve.Pool.create ~config:(pool_config ()) () in
  Fun.protect ~finally:(fun () -> ignore (Serve.Pool.close pool)) @@ fun () ->
  let inflight = Queue.create () in
  let await_oldest () =
    match Serve.Pool.await ~timeout_s:30. pool (Queue.pop inflight) with
    | Ok { outcome = Serve.Pool.Checksum 1; _ } -> ()
    | _ -> Alcotest.fail "request did not complete"
  in
  let run n =
    for _ = 1 to n do
      if Queue.length inflight >= 64 then await_oldest ();
      match Serve.Pool.submit pool ~tenant:"a" (quick_thunk 1) with
      | Ok t -> Queue.push t inflight
      | Error _ -> Alcotest.fail "submit rejected"
    done;
    while not (Queue.is_empty inflight) do
      await_oldest ()
    done
  in
  run 20_000;
  let before = Checks.live_words () in
  run 180_000;
  Checks.check_flat ~before ~n:180_000 ()

let suite =
  ( "serve",
    [
      Alcotest.test_case "admission: cap, reject, re-admit" `Quick
        test_admission_cap;
      Alcotest.test_case "DRR fairness at 10:1 offered load" `Quick
        test_drr_fairness;
      Alcotest.test_case "DRR size weighting" `Quick test_drr_size_weighting;
      Alcotest.test_case "EDF overtakes FIFO order" `Quick test_edf_order;
      Alcotest.test_case "EDF panic override across tenants" `Quick
        test_edf_panic_override;
      Alcotest.test_case "deadline-miss accounting" `Quick
        test_deadline_accounting;
      Alcotest.test_case "promotion hint: monotone, clamped" `Quick
        test_promotion_hint;
      Alcotest.test_case "pool: warm session round trips" `Quick
        test_pool_basic;
      Alcotest.test_case "pool: registry kernel checksum" `Quick
        test_pool_kernel;
      Alcotest.test_case "pool: Serve_exec TPAL oracle, 5 seeds" `Quick
        test_serve_exec_oracle;
      Alcotest.test_case "pool: backpressure + re-admission" `Quick
        test_pool_backpressure;
      Alcotest.test_case "pool: typed Pool_closed teardown" `Quick
        test_pool_closed_typed;
      Alcotest.test_case "pool: latency histograms and percentiles" `Quick
        test_latency_histograms;
      Alcotest.test_case "pool: concurrent-submit exactly-once stress" `Quick
        test_concurrent_stress;
      Alcotest.test_case "pool: lease watchdog degradation" `Quick
        test_watchdog_degradation;
      Alcotest.test_case "sched: surgical cancel" `Quick test_sched_cancel;
      Alcotest.test_case "sched: deterministic backoff" `Quick test_backoff;
      Alcotest.test_case "pool: cancel while queued" `Quick test_cancel_queued;
      Alcotest.test_case "pool: cancel mid-strip" `Quick test_cancel_in_flight;
      Alcotest.test_case "pool: timeout races completion" `Quick
        test_timeout_races_completion;
      Alcotest.test_case "pool: retry recovers a transient fault" `Quick
        test_retry_recovers;
      Alcotest.test_case "pool: retry budget exhausts typed" `Quick
        test_retry_budget_exhaustion;
      Alcotest.test_case "pool: warm restart after Machine_fault" `Quick
        test_warm_restart;
      QCheck_alcotest.to_alcotest prop_answered;
      Alcotest.test_case "sched: served and drained requests are released" `Quick
        test_sched_releases_payloads;
      Alcotest.test_case "pool: a result is read once" `Quick
        test_pool_reads_once;
      Alcotest.test_case "pool: live heap flat over 200k awaited requests" `Quick
        test_pool_memory_flat;
      Alcotest.test_case "pool: a polling request past its lease is cancelled"
        `Quick test_lease_cancels_polling_request;
      Alcotest.test_case "pool: a second Machine_fault fails the pool over"
        `Quick test_second_fault_fails_over;
    ] )
