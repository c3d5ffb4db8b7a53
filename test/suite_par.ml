(* The multi-domain runtime (lib/par): the concurrent Chase–Lev deque
   under real contention, and the scheduler's correctness properties —
   exactly-once loop coverage, fork trees, join resolution across
   domains, kernel equality against the serial executor, session
   reuse, and exception propagation.

   Everything here gates on nothing: the runtime must be correct at
   any domain count on any host, including domain counts above the
   core count (oversubscription just means more preemption).  Only
   SPEEDUP claims depend on real cores, and those live in the bench
   pipeline (BENCH_par.json), not in tier-1. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ws_deque, single-threaded: LIFO at the bottom, FIFO at the top. *)

let test_deque_lifo () =
  let d = Par.Ws_deque.create () in
  check "fresh empty" true (Par.Ws_deque.is_empty d);
  for i = 1 to 100 do
    Par.Ws_deque.push_bottom d i
  done;
  check_int "length" 100 (Par.Ws_deque.length d);
  for i = 100 downto 1 do
    check_int "pop order" i
      (match Par.Ws_deque.pop_bottom d with Some v -> v | None -> -1)
  done;
  check "drained" true (Par.Ws_deque.is_empty d);
  check "pop on empty" true (Par.Ws_deque.pop_bottom d = None)

let test_deque_fifo_steal () =
  let d = Par.Ws_deque.create () in
  for i = 1 to 50 do
    Par.Ws_deque.push_bottom d i
  done;
  (* thieves see the oldest end *)
  for i = 1 to 25 do
    check_int "steal order" i
      (match Par.Ws_deque.steal_top d with Some v -> v | None -> -1)
  done;
  (* the owner still sees LIFO on what remains *)
  for i = 50 downto 26 do
    check_int "pop after steals" i
      (match Par.Ws_deque.pop_bottom d with Some v -> v | None -> -1)
  done;
  check "steal on empty" true (Par.Ws_deque.steal_top d = None)

let test_deque_grow () =
  (* push far past the initial capacity, interleaving pops *)
  let d = Par.Ws_deque.create () in
  let next = ref 0 in
  let popped = ref [] in
  for _ = 1 to 2000 do
    Par.Ws_deque.push_bottom d !next;
    incr next;
    if !next mod 3 = 0 then
      match Par.Ws_deque.pop_bottom d with
      | Some v -> popped := v :: !popped
      | None -> Alcotest.fail "pop on non-empty"
  done;
  let rec drain acc =
    match Par.Ws_deque.pop_bottom d with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let all = List.sort compare (!popped @ drain []) in
  check_int "no lost or duplicated elements" 2000 (List.length all);
  List.iteri (fun i v -> if i <> v then Alcotest.failf "hole at %d: %d" i v) all

(* ------------------------------------------------------------------ *)
(* Ws_deque under real contention: one owner domain doing push/pop,
   several thief domains stealing, ≥1e5 operations.  Checks: the
   multiset of popped+stolen elements is exactly the pushed multiset
   (nothing lost, nothing duplicated), and each thief observes
   strictly increasing elements (single-deque steals are FIFO). *)

let test_deque_stress () =
  let d = Par.Ws_deque.create () in
  let total = 120_000 in
  let n_thieves = 3 in
  let stop = Atomic.make false in
  let stolen = Array.init n_thieves (fun _ -> ref []) in
  let thieves =
    Array.init n_thieves (fun t ->
        Domain.spawn (fun () ->
            let mine = stolen.(t) in
            while not (Atomic.get stop) do
              match Par.Ws_deque.steal_top d with
              | Some v -> mine := v :: !mine
              | None -> Domain.cpu_relax ()
            done;
            (* final sweep so nothing is stranded *)
            let rec sweep () =
              match Par.Ws_deque.steal_top d with
              | Some v ->
                  mine := v :: !mine;
                  sweep ()
              | None -> ()
            in
            sweep ()))
  in
  let popped = ref [] in
  let next = ref 0 in
  let rng = ref 42 in
  let rand () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 16) land 0xFF
  in
  while !next < total do
    (* bursts of pushes, then a few pops: keeps the deque crossing the
       empty/one-element boundary where the races live *)
    let burst = 1 + (rand () mod 8) in
    for _ = 1 to burst do
      if !next < total then begin
        Par.Ws_deque.push_bottom d !next;
        incr next
      end
    done;
    let pops = rand () mod 4 in
    for _ = 1 to pops do
      match Par.Ws_deque.pop_bottom d with
      | Some v -> popped := v :: !popped
      | None -> ()
    done
  done;
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  (* drain what the owner still holds *)
  let rec drain () =
    match Par.Ws_deque.pop_bottom d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  (* per-thief FIFO: steals from one deque arrive oldest-first *)
  Array.iteri
    (fun t mine ->
      let in_order = List.rev !mine in
      let rec mono = function
        | a :: (b :: _ as rest) ->
            if a >= b then
              Alcotest.failf "thief %d saw %d before %d (not FIFO)" t a b;
            mono rest
        | _ -> ()
      in
      mono in_order)
    stolen;
  (* conservation: pushed = popped ⊎ stolen *)
  let all =
    List.sort compare
      (!popped @ Array.fold_left (fun acc r -> !r @ acc) [] stolen)
  in
  check_int "conservation (no lost/duplicated)" total (List.length all);
  List.iteri
    (fun i v -> if i <> v then Alcotest.failf "element %d missing (saw %d)" i v)
    all

let cfg ?(domains = 3) ?(heart_us = 25.) () =
  { Par.Runtime.default_config with domains; heart_us }

(* ------------------------------------------------------------------ *)
(* Ws_deque growth racing live thieves: the owner repeatedly pushes
   bursts far past the current capacity (forcing [grow] — initial
   capacity is 16, so a 700-element burst grows several times) while
   thief domains steal concurrently, so steals are in flight across
   the old-table/new-table hand-over.  Checks conservation and
   per-thief FIFO, same as the general stress test, but the schedule
   is shaped to keep every grow under contention. *)

let test_deque_grow_under_steal () =
  let d = Par.Ws_deque.create () in
  let bursts = 40 in
  let burst_len = 700 in
  let total = bursts * burst_len in
  let n_thieves = 2 in
  let stop = Atomic.make false in
  let stolen = Array.init n_thieves (fun _ -> ref []) in
  let thieves =
    Array.init n_thieves (fun t ->
        Domain.spawn (fun () ->
            let mine = stolen.(t) in
            while not (Atomic.get stop) do
              match Par.Ws_deque.steal_top d with
              | Some v -> mine := v :: !mine
              | None -> Domain.cpu_relax ()
            done;
            let rec sweep () =
              match Par.Ws_deque.steal_top d with
              | Some v ->
                  mine := v :: !mine;
                  sweep ()
              | None -> ()
            in
            sweep ()))
  in
  let popped = ref [] in
  let next = ref 0 in
  for _ = 1 to bursts do
    (* each burst crosses several grow boundaries while thieves run *)
    for _ = 1 to burst_len do
      Par.Ws_deque.push_bottom d !next;
      incr next
    done;
    (* a few owner pops to exercise the shrunken-window paths *)
    for _ = 1 to 5 do
      match Par.Ws_deque.pop_bottom d with
      | Some v -> popped := v :: !popped
      | None -> ()
    done
  done;
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  let rec drain () =
    match Par.Ws_deque.pop_bottom d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iteri
    (fun t mine ->
      let rec mono = function
        | a :: (b :: _ as rest) ->
            if a >= b then
              Alcotest.failf "thief %d saw %d before %d (not FIFO)" t a b;
            mono rest
        | _ -> ()
      in
      mono (List.rev !mine))
    stolen;
  let all =
    List.sort compare
      (!popped @ Array.fold_left (fun acc r -> !r @ acc) [] stolen)
  in
  check_int "conservation across grows" total (List.length all);
  List.iteri
    (fun i v -> if i <> v then Alcotest.failf "element %d missing (saw %d)" i v)
    all

(* ------------------------------------------------------------------ *)
(* Victim selection must be total, never self, and in range for ANY
   rng draw — including draws near [max_int], where the pre-fix
   arithmetic ([1 + ((r + k) mod (n - 1))]) overflowed [r + k]
   negative and produced negative or self victim indices. *)

let test_steal_victim_no_overflow () =
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          List.iter
            (fun self ->
              let seen = Array.make n false in
              for k = 0 to n - 2 do
                let v = Par.Runtime.steal_victim ~r ~self ~n k in
                if v < 0 || v >= n then
                  Alcotest.failf
                    "r=%d n=%d self=%d k=%d: victim %d out of range" r n self
                    k v;
                if v = self then
                  Alcotest.failf "r=%d n=%d self=%d k=%d: self-steal" r n self
                    k;
                if seen.(v) then
                  Alcotest.failf
                    "r=%d n=%d self=%d k=%d: victim %d repeated in one sweep"
                    r n self k v;
                seen.(v) <- true
              done;
              (* a full sweep covers every other worker exactly once *)
              Array.iteri
                (fun i hit ->
                  if i <> self && not hit then
                    Alcotest.failf "r=%d n=%d self=%d: worker %d never swept"
                      r n self i)
                seen)
            [ 0; n - 1 ])
        [ 2; 3; 4; 8 ])
    [ 0; 1; 12345; max_int - 1; max_int ]

(* ------------------------------------------------------------------ *)
(* The monotonic clock behind the beat. *)

let test_mclock_monotone () =
  let last = ref (Mclock.now_ns ()) in
  for _ = 1 to 200_000 do
    let now = Mclock.now_ns () in
    if now < !last then
      Alcotest.failf "clock went backwards: %d after %d" now !last;
    last := now
  done;
  let t0 = Mclock.now_ns () in
  Unix.sleepf 0.005;
  let dt = Mclock.now_ns () - t0 in
  (* a 5 ms sleep must register as real elapsed time (generous floor:
     sleepf never returns early by more than scheduler jitter) *)
  check "sleep advances the clock" true (dt >= 2_000_000)

(* Beat cadence: a tiny heart period fires beats during a polling
   loop; an unreachable one never does.  (The pre-fix
   gettimeofday source also passes the first half — the regression it
   guards is the init-time fix: [last_beat] armed when the worker
   loop starts, not at pool construction.) *)
let test_polling_cadence () =
  let spin_polling ms =
    (* ~ms of work hitting a poll point each iteration, with no latent
       parallelism advertised (beat cadence in isolation) *)
    let t_end = Mclock.now_s () +. (float_of_int ms /. 1000.) in
    while Mclock.now_s () < t_end do
      Par.Runtime.poll ()
    done
  in
  let config heart_us = cfg ~domains:1 ~heart_us () in
  let (), st =
    Par.Runtime.run ~config:(config 100.) (fun () -> spin_polling 20)
  in
  check "tiny heart period fires beats" true (st.total.beats > 0);
  let (), st =
    Par.Runtime.run ~config:(config 1e12) (fun () -> spin_polling 5)
  in
  check_int "unreachable heart period never fires" 0 st.total.beats

(* ------------------------------------------------------------------ *)
(* Strip-mining under forced promotion: with [heart_us = 0.] every
   strip is one iteration and every strip-boundary poll is due, so the
   advertised range is split at every opportunity — maximum pressure
   on the claim-up-front invariant (a promotion must only ever hand
   out iterations the running strip has not claimed).  Multi-iteration
   strips under promotion are covered by
   [test_time_sized_strips_exactly_once]. *)

let test_strip_boundaries_exactly_once () =
  List.iter
    (fun domains ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      let config = cfg ~domains ~heart_us:0. () in
      let (), st =
        Par.Runtime.run ~config (fun () ->
            Par.Runtime.par_for ~lo:0 ~hi:n (fun i ->
                hits.(i) <- hits.(i) + 1))
      in
      check
        (Printf.sprintf "forced promotion actually promotes at %d domains"
           domains)
        true
        (st.total.promotions > 0);
      Array.iteri
        (fun i h ->
          if h <> 1 then
            Alcotest.failf "domains=%d: index %d ran %d times" domains i h)
        hits)
    [ 1; 2; 4 ];
  (* nested loops under the same forcing *)
  let n = 60 in
  let grid = Array.make (n * n) 0 in
  let config = cfg ~domains:3 ~heart_us:0. () in
  let (), _ =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.par_for ~lo:0 ~hi:n (fun r ->
            Par.Runtime.par_for ~lo:0 ~hi:n (fun c ->
                grid.((r * n) + c) <- grid.((r * n) + c) + 1)))
  in
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "cell %d ran %d times" i h)
    grid

(* ------------------------------------------------------------------ *)
(* Idle backoff policy: pure-function bounds — no nap while spinning,
   naps monotone nondecreasing, capped at [max_nap_s] — so a fully
   backed-off thief re-sweeps within one capped nap of work appearing;
   plus an end-to-end check that a session with a long serial phase
   (which drives every other worker to the nap cap) still promotes
   and completes. *)

let test_backoff_bounded () =
  for f = 1 to Par.Runtime.spin_limit do
    check (Printf.sprintf "failure %d spins, no nap" f) true
      (Par.Runtime.nap_s ~failures:f = 0.)
  done;
  let prev = ref 0. in
  for f = Par.Runtime.spin_limit + 1 to Par.Runtime.spin_limit + 64 do
    let nap = Par.Runtime.nap_s ~failures:f in
    check (Printf.sprintf "failure %d naps" f) true (nap > 0.);
    check
      (Printf.sprintf "failure %d nondecreasing" f)
      true (nap >= !prev);
    check
      (Printf.sprintf "failure %d capped" f)
      true
      (nap <= Par.Runtime.max_nap_s);
    prev := nap
  done;
  check "ladder reaches the cap" true (!prev = Par.Runtime.max_nap_s);
  (* very large failure counts must not overflow the shift *)
  check "huge failure count still capped" true
    (Par.Runtime.nap_s ~failures:max_int = Par.Runtime.max_nap_s);
  (* end-to-end: ~30 ms of serial work sends the 3 idle workers far
     past the spin limit, then a promotable loop must still get
     promoted and finish correctly.  The phase starts once every other
     worker has napped: a stolen [main] can start before the last
     domains are even spawned. *)
  let n = 20_000 and domains = 4 and phase_ns = 30_000_000 in
  let hits = Array.make n 0 in
  let (), st =
    Par.Runtime.run ~config:(cfg ~domains ~heart_us:25. ()) (fun () ->
        let napped () =
          Array.fold_left
            (fun k (w : Par.Runtime.worker_stats) ->
              if w.idle_ns > 0 then k + 1 else k)
            0 (Par.Runtime.live_stats ()).per_worker
        in
        while napped () < domains - 1 do
          Domain.cpu_relax ()
        done;
        let t_end = Mclock.now_ns () + phase_ns in
        while Mclock.now_ns () < t_end do
          Sys.opaque_identity () |> ignore
        done;
        Par.Runtime.par_for ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1))
  in
  Array.iteri
    (fun i h ->
      if h <> 1 then Alcotest.failf "index %d ran %d times" i h)
    hits;
  check "work still promoted after the idle phase" true
    (st.total.promotions > 0);
  (* the idle workers nap through nearly all of the serial phase, and a
     nap is booked at the time it really slept, so the booked idle time
     covers most of (domains - 1) x the phase *)
  let want = (domains - 1) * phase_ns * 85 / 100 in
  check
    (Printf.sprintf "idle_ns %d covers 85%% of the idle workers' %d ns"
       st.total.idle_ns ((domains - 1) * phase_ns))
    true
    (st.total.idle_ns >= want)

(* ------------------------------------------------------------------ *)
(* Runtime properties. *)

let test_par_for_exactly_once () =
  List.iter
    (fun domains ->
      let n = 50_000 in
      let hits = Array.make n 0 in
      let (), _ =
        Par.Runtime.run ~config:(cfg ~domains ())
          (fun () ->
            Par.Runtime.par_for ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1))
      in
      Array.iteri
        (fun i h ->
          if h <> 1 then
            Alcotest.failf "domains=%d: index %d ran %d times" domains i h)
        hits)
    [ 1; 2; 4 ]

let test_fork_tree () =
  (* a fib-shaped fork tree: deeply nested fork2 with joins resolved
     across domains *)
  let rec fib n =
    if n < 2 then n
    else begin
      let a = ref 0 and b = ref 0 in
      Par.Runtime.fork2
        (fun () -> a := fib (n - 1))
        (fun () -> b := fib (n - 2));
      !a + !b
    end
  in
  List.iter
    (fun domains ->
      let r, st =
        Par.Runtime.run ~config:(cfg ~domains ~heart_us:10. ()) (fun () ->
            fib 20)
      in
      check_int (Printf.sprintf "fib 20 at %d domains" domains) 6765 r;
      (* resumes and joins must balance: every parked parent is woken
         exactly once *)
      check_int
        (Printf.sprintf "joins = resumes at %d domains" domains)
        st.total.joins st.total.resumes)
    [ 1; 2; 3 ]

let test_nested_par_for () =
  let n = 120 in
  let grid = Array.make (n * n) 0 in
  let (), _ =
    Par.Runtime.run ~config:(cfg ()) (fun () ->
        Par.Runtime.par_for ~lo:0 ~hi:n (fun r ->
            Par.Runtime.par_for ~lo:0 ~hi:n (fun c ->
                grid.((r * n) + c) <- grid.((r * n) + c) + 1)))
  in
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "cell %d ran %d times" i h)
    grid

let test_kernel_equality () =
  (* every registry kernel, bit-identical to serial at 2 and 3 domains *)
  List.iter
    (fun (b : Workloads.Real_bench.t) ->
      let serial = Workloads.Real_bench.run_serial b ~scale:1 in
      List.iter
        (fun domains ->
          let par, _ =
            Par.Runtime.run ~config:(cfg ~domains ()) (fun () ->
                b.run (module Par.Runtime.Exec) ~scale:1)
          in
          check_int
            (Printf.sprintf "%s at %d domains" b.name domains)
            serial par)
        [ 2; 3 ])
    Workloads.Real_bench.all

let test_session_reuse () =
  (* repeated sessions in one process: no leaked domains, no poisoned
     global state (the teardown path joins everything it spawned) *)
  for i = 1 to 5 do
    let r, _ =
      Par.Runtime.run ~config:(cfg ()) (fun () ->
          let acc = Atomic.make 0 in
          Par.Runtime.par_for ~lo:0 ~hi:1000 (fun j ->
              ignore (Atomic.fetch_and_add acc j));
          Atomic.get acc)
    in
    check_int (Printf.sprintf "session %d" i) (999 * 1000 / 2) r
  done

let test_no_nesting () =
  let raised = ref false in
  let (), _ =
    Par.Runtime.run ~config:(cfg ~domains:1 ()) (fun () ->
        match Par.Runtime.run (fun () -> ()) with
        | exception Invalid_argument _ -> raised := true
        | _ -> ())
  in
  check "nested run rejected" true !raised

let test_outside_run () =
  match Par.Runtime.par_for ~lo:0 ~hi:1 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "par_for outside run should raise"

let test_exception_propagation () =
  List.iter
    (fun domains ->
      (match
         Par.Runtime.run ~config:(cfg ~domains ()) (fun () ->
             Par.Runtime.par_for ~lo:0 ~hi:10_000 (fun i ->
                 if i = 8191 then failwith "kaboom"))
       with
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "message survives at %d domains" domains)
            "kaboom" m
      | _ -> Alcotest.fail "exception swallowed");
      (* and the pool is reusable afterwards *)
      let r, _ =
        Par.Runtime.run ~config:(cfg ~domains ()) (fun () -> 11)
      in
      check_int "session works after failure" 11 r)
    [ 1; 3 ]

let test_stats_accounting () =
  let tr = Obs.Trace.create () in
  let config = { (cfg ~domains:2 ~heart_us:15. ()) with tracer = Some tr } in
  let live = ref 0. in
  let (), st =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.par_for ~lo:0 ~hi:100_000 (fun i ->
            Sys.opaque_identity i |> ignore);
        live := (Par.Runtime.live_stats ()).elapsed_s)
  in
  check "some events traced" true (Obs.Trace.total_written tr > 0);
  check_int "the rings dropped nothing" 0 (Obs.Trace.total_dropped tr);
  check "promotions split into loop+branch" true
    (st.total.promotions
    = st.total.loop_promotions + st.total.branch_promotions);
  check "per-worker sums to total" true
    (Array.fold_left (fun a (w : Par.Runtime.worker_stats) -> a + w.tasks_run)
       0 st.per_worker
    = st.total.tasks_run);
  check_int "domains recorded" 2 st.domains;
  check "elapsed measured" true (st.elapsed_s > 0.);
  (* both read the one monotonic clock from the one session start, so
     the session outlasts any snapshot taken inside it *)
  check "elapsed covers the last live snapshot" true
    (!live > 0. && !live <= st.elapsed_s)

(* The urgency hook (the serving layer's deadline-aware promotion
   hint): with an astronomically long heart period no beat ever fires
   naturally, so promotions stay at zero; raising the urgency shifts
   the effective period down until every poll beats.  Also pins the
   clamp and the outside-session rejection. *)
let test_urgency_promotes () =
  let config = cfg ~domains:1 ~heart_us:1e12 () in
  let work () =
    let a = Array.make 4096 0 in
    Par.Runtime.par_for ~lo:0 ~hi:4096 (fun i -> a.(i) <- i)
  in
  let (), st0 = Par.Runtime.run ~config (fun () -> work ()) in
  check_int "no promotions at base cadence" 0 st0.total.promotions;
  let (), st1 =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.set_urgency 9999;
        check_int "urgency clamped" Par.Runtime.max_urgency
          (Par.Runtime.urgency ());
        Par.Runtime.set_urgency (-3);
        check_int "urgency floored" 0 (Par.Runtime.urgency ());
        Par.Runtime.set_urgency Par.Runtime.max_urgency;
        work ();
        Par.Runtime.set_urgency 0)
  in
  check "max urgency forces promotions" true (st1.total.promotions > 0);
  match Par.Runtime.set_urgency 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_urgency outside run should raise"

let test_knapsack_incumbent_monotone () =
  (* the CAS-max incumbent: the parallel optimum equals the DP optimum
     on every schedule (regression for the read-check-write race) *)
  let rng = Sim.Prng.create ~seed:77 in
  let inst = Workloads.Knapsack.instance ~rng ~n:20 in
  let expect = Workloads.Knapsack.dp_optimum inst in
  List.iter
    (fun domains ->
      let (r : Workloads.Knapsack.result), _ =
        Par.Runtime.run ~config:(cfg ~domains ~heart_us:10. ()) (fun () ->
            Workloads.Knapsack.search (module Par.Runtime.Exec) inst)
      in
      check_int (Printf.sprintf "optimum at %d domains" domains) expect r.best)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Time-sized loop strips: a strip's length follows the time the last
   one took ([Runtime.next_strip]), so a poll comes about every ♥ / 8
   of loop time whatever an iteration costs. *)

let test_next_strip_policy () =
  let next ?(heart_ns = 100_000) ?(urgency = 0) strip elapsed_ns =
    Par.Runtime.next_strip ~heart_ns ~urgency ~strip ~elapsed_ns
  in
  (* ♥ = 100 µs: the target is 12.5 µs *)
  check_int "fast strip doubles" 8 (next 4 1_000);
  check_int "just under half the target doubles" 8 (next 4 6_249);
  check_int "half the target holds" 4 (next 4 6_250);
  check_int "the target itself holds" 4 (next 4 12_500);
  check_int "an overrun halves" 2 (next 4 12_501);
  check_int "a one-iteration strip never goes below 1" 1 (next 1 max_int);
  check_int "the cap holds" Par.Runtime.max_strip
    (next Par.Runtime.max_strip 0);
  check_int "doubling stops at the cap" Par.Runtime.max_strip
    (next ((Par.Runtime.max_strip / 2) + 1) 0);
  List.iter
    (fun (strip, elapsed) ->
      check_int
        (Printf.sprintf "♥ = 0 keeps strip %d at 1 (elapsed %d)" strip elapsed)
        1
        (next ~heart_ns:0 strip elapsed))
    [ (1, 0); (4096, 0); (Par.Runtime.max_strip, 1); (2, 1_000_000) ];
  (* the ~1 µs floor: full urgency takes the effective ♥ to 0, and a
     tiny ♥ has a target far below a clock read *)
  let floor = Par.Runtime.min_strip_target_ns in
  check "the floor is about 1 us" true (floor >= 500 && floor <= 2_000);
  List.iter
    (fun (heart_ns, urgency) ->
      let what = Printf.sprintf "♥ %d ns, urgency %d" heart_ns urgency in
      check_int (what ^ ": under half the floor doubles") 8
        (next ~heart_ns ~urgency 4 ((floor / 2) - 1));
      check_int (what ^ ": within the floor holds") 4
        (next ~heart_ns ~urgency 4 floor);
      check_int (what ^ ": over the floor halves") 2
        (next ~heart_ns ~urgency 4 (floor + 1)))
    [ (100_000, Par.Runtime.max_urgency); (100_000, 20); (1, 0); (7_999, 0) ];
  (* urgency shifts the target: at urgency 2 (♥ / 4 = 25 µs) the
     target is 3.125 µs *)
  check_int "urgency shrinks the target" 2 (next ~urgency:2 4 3_126);
  check_int "urgency 2 holds at its target" 4 (next ~urgency:2 4 3_125);
  (* iterated from one iteration, a loop settles where a strip takes
     between half the target and the target, or at the cap *)
  let settle ~iter_ns =
    let s = ref 1 in
    for _ = 1 to 64 do
      s := next !s (!s * iter_ns)
    done;
    !s
  in
  check_int "1 us iterations settle at 8-iteration strips" 8
    (settle ~iter_ns:1_000);
  check_int "sub-ns iterations settle at the cap" Par.Runtime.max_strip
    (settle ~iter_ns:0);
  check_int "1 ms iterations settle at one iteration" 1
    (settle ~iter_ns:1_000_000)

(* Heavy iterations: 24 of 0.5 ms each.  A strip of one iteration
   already overruns the target, so every iteration ends in a poll, and
   a beat that falls due mid-loop promotes the rest of it. *)
let test_heavy_iterations_promote () =
  let config = cfg ~domains:1 ~heart_us:100. () in
  let n = 24 in
  let hits = Array.make n 0 in
  let (), st =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.par_for ~lo:0 ~hi:n (fun i ->
            Unix.sleepf 0.0005;
            hits.(i) <- hits.(i) + 1))
  in
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d ran %d times" i h)
    hits;
  check
    (Printf.sprintf "24 x 0.5 ms iterations promote (beats %d, promotions %d)"
       st.total.beats st.total.promotions)
    true
    (st.total.promotions > 0);
  check
    (Printf.sprintf "a poll after every heavy iteration (%d polls)"
       st.total.polls)
    true (st.total.polls >= n)

(* One-store iterations: strips grow until one takes half the target,
   so a million indices cost a few hundred polls.  The bound of 2,000
   fails a fixed strip of up to 500 iterations. *)
let test_one_store_loop_polls_rarely () =
  let config = cfg ~domains:1 ~heart_us:100. () in
  let n = 1_000_000 in
  let a = Array.make n 0 in
  let (), st =
    Par.Runtime.run ~config (fun () ->
        Par.Runtime.par_for ~lo:0 ~hi:n (fun i -> a.(i) <- i))
  in
  Array.iteri
    (fun i x -> if x <> i then Alcotest.failf "a.(%d) = %d" i x)
    a;
  check
    (Printf.sprintf "1 M one-store iterations take at most 2000 polls (%d)"
       st.total.polls)
    true
    (st.total.polls > 0 && st.total.polls <= 2_000);
  check_int "per-worker polls sum to the total" st.total.polls
    (Array.fold_left
       (fun k (w : Par.Runtime.worker_stats) -> k + w.polls)
       0 st.per_worker);
  check_int "polls reach Obs.Metrics" st.total.polls
    (Par.Runtime.metrics st).polls

(* Iterations that turn 1000x slower partway through: the strip grown
   on fast iterations may run its full length on slow ones, so the
   first beat after the slowdown can come as late as max_strip slow
   iterations plus one ♥ — but no later.  A slow iteration's cost is
   the slow phase's wall-clock over its iteration count, so polls and
   promotions inside it are charged to the iterations.  The switch
   counts executed iterations, not indices: a promotion reorders the
   indices.  A host that preempts the loop for longer than the bound
   can make one attempt late, so the bound must hold in one of three. *)
let test_slowdown_beat_bound () =
  let heart_us = 100. in
  let fast = 4 * Par.Runtime.max_strip and slow = 2 * Par.Runtime.max_strip in
  let n = fast + slow in
  let sink = Array.make 64 0 in
  let work k i =
    for j = 1 to k do
      sink.(j land 63) <- Sys.opaque_identity (i + j)
    done
  in
  let attempt () =
    let tr = Obs.Trace.create () in
    let config =
      { (cfg ~domains:1 ~heart_us ()) with tracer = Some tr }
    in
    let executed = ref 0 and switch_ns = ref 0 and last_ns = ref 0 in
    let (), _ =
      Par.Runtime.run ~config (fun () ->
          Par.Runtime.par_for ~lo:0 ~hi:n (fun i ->
              incr executed;
              if !executed <= fast then work 1 i
              else begin
                if !switch_ns = 0 then switch_ns := Mclock.now_ns ();
                work 1000 i;
                last_ns := Mclock.now_ns ()
              end))
    in
    check_int "every iteration ran" n !executed;
    check_int "the ring dropped nothing" 0 (Obs.Trace.total_dropped tr);
    (* a beat's {!Mclock} stamp: the trace's origin plus its offset *)
    let beats =
      List.concat_map snd (Obs.Trace.events tr)
      |> List.filter_map (fun (at_ns, e) ->
             if e = Obs.Event.Beat then Some (tr.Obs.Trace.t0_ns + at_ns)
             else None)
    in
    match List.sort compare (List.filter (fun t -> t >= !switch_ns) beats) with
    | [] -> Alcotest.fail "no beat after the slowdown"
    | first :: _ ->
        let slow_ns = (!last_ns - !switch_ns) / slow in
        let latency = first - !switch_ns
        and bound =
          (Par.Runtime.max_strip * slow_ns) + int_of_float (heart_us *. 1e3)
        in
        ( latency <= bound,
          Printf.sprintf
            "first beat %d ns after the slowdown, bound %d ns (slow              iteration %d ns)"
            latency bound slow_ns )
  in
  let rec go tries =
    let ok, what = attempt () in
    if ok || tries = 1 then check what true ok else go (tries - 1)
  in
  go 3

(* The coverage forced promotion at ♥ = 0 cannot give: strips of many
   iterations, split by promotions.  A 2 µs ♥ keeps beats frequent
   while its 1 µs strip target lets strips grow well past one
   iteration. *)
let test_time_sized_strips_exactly_once () =
  let config domains = cfg ~domains ~heart_us:2. () in
  List.iter
    (fun domains ->
      let n = 200_000 in
      let hits = Array.make n 0 in
      let (), st =
        Par.Runtime.run ~config:(config domains) (fun () ->
            Par.Runtime.par_for ~lo:0 ~hi:n (fun i ->
                hits.(i) <- hits.(i) + 1))
      in
      Array.iteri
        (fun i h ->
          if h <> 1 then
            Alcotest.failf "flat, domains=%d: index %d ran %d times" domains i
              h)
        hits;
      check
        (Printf.sprintf "flat, %d domains: promotions %d > 0" domains
           st.total.promotions)
        true
        (st.total.promotions > 0);
      check
        (Printf.sprintf "flat, %d domains: %d polls for %d iterations" domains
           st.total.polls n)
        true
        (st.total.polls < n / 4);
      let rows = 300 and cols = 300 in
      let grid = Array.make (rows * cols) 0 in
      let (), st =
        Par.Runtime.run ~config:(config domains) (fun () ->
            Par.Runtime.par_for ~lo:0 ~hi:rows (fun r ->
                Par.Runtime.par_for ~lo:0 ~hi:cols (fun c ->
                    let k = (r * cols) + c in
                    grid.(k) <- grid.(k) + 1)))
      in
      Array.iteri
        (fun i h ->
          if h <> 1 then
            Alcotest.failf "nested, domains=%d: cell %d ran %d times" domains
              i h)
        grid;
      check
        (Printf.sprintf "nested, %d domains: promotions %d > 0" domains
           st.total.promotions)
        true
        (st.total.promotions > 0);
      check
        (Printf.sprintf "nested, %d domains: %d polls for %d cells" domains
           st.total.polls (rows * cols))
        true
        (st.total.polls < rows * cols / 4))
    [ 1; 2; 4 ]

(* Pay-for-use: an untraced session builds no events.  At ♥ = 0 every
   poll beats and promotes, so a 20,000-index par_for runs 8,193 tasks;
   their task records, closures and marks cost 35 minor words per task
   run, on top of what an empty session costs to set up.  A
   Task_start/Task_finish pair built with no ring to take it would add
   4.  Of three runs the leanest counts: the words are exact, but any
   other thread on this domain allocates into the same count. *)
let test_untraced_allocation_budget () =
  let config = cfg ~domains:1 ~heart_us:0. () in
  let session hi =
    let w0 = Gc.minor_words () in
    let (), st =
      Par.Runtime.run ~config (fun () ->
          Par.Runtime.par_for ~lo:0 ~hi (fun _ -> ()))
    in
    (Gc.minor_words () -. w0, st.total.tasks_run)
  in
  let setup, _ = session 0 in
  let runs = List.init 3 (fun _ -> session 20_000) in
  let words = List.fold_left (fun m (w, _) -> Float.min m w) infinity runs
  and tasks = snd (List.hd runs) in
  let budget = 35 * tasks in
  if words -. setup > float_of_int budget then
    Alcotest.failf "%.0f minor words for %d tasks (budget %d)" (words -. setup)
      tasks budget

(* A promoted child starts at its parent's strip, not at 1.  ♥ is so
   long that no beat comes by itself: strips double up to [max_strip]
   and their count is exact.  One beat is forced by raising the urgency
   until the promotion lands.  A child that restarted at strip 1 would
   spend log2 [max_strip] = 13 extra polls growing back, so the loop
   with that one promotion may take only a few more polls than the
   same loop with none. *)
let test_promoted_child_keeps_strip () =
  let config = cfg ~domains:1 ~heart_us:1e12 () in
  let n = 64 * Par.Runtime.max_strip in
  let polls ~promote =
    let forcing = ref false in
    let (), st =
      Par.Runtime.run ~config (fun () ->
          Par.Runtime.par_for ~lo:0 ~hi:n (fun i ->
              if promote && i = n / 4 then begin
                Par.Runtime.set_urgency Par.Runtime.max_urgency;
                forcing := true
              end
              else if
                !forcing && (Par.Runtime.live_stats ()).total.promotions > 0
              then begin
                Par.Runtime.set_urgency 0;
                forcing := false
              end))
    in
    check_int "promotions" (if promote then 1 else 0) st.total.promotions;
    st.total.polls
  in
  let extra = polls ~promote:true - polls ~promote:false in
  check
    (Printf.sprintf "one promotion costs %d extra polls" extra)
    true (extra <= 4)

let suite =
  ( "par",
    [
      Alcotest.test_case "deque: LIFO bottom" `Quick test_deque_lifo;
      Alcotest.test_case "deque: FIFO steals" `Quick test_deque_fifo_steal;
      Alcotest.test_case "deque: grow conserves" `Quick test_deque_grow;
      Alcotest.test_case "deque: multi-domain stress, 120k ops" `Quick
        test_deque_stress;
      Alcotest.test_case "deque: grow under live steals" `Quick
        test_deque_grow_under_steal;
      Alcotest.test_case "steal victim: no overflow at max_int rng" `Quick
        test_steal_victim_no_overflow;
      Alcotest.test_case "mclock is monotonic" `Quick test_mclock_monotone;
      Alcotest.test_case "polling beat cadence" `Quick test_polling_cadence;
      Alcotest.test_case "strip boundaries exactly once under forced beats"
        `Quick test_strip_boundaries_exactly_once;
      Alcotest.test_case "idle backoff is bounded" `Quick test_backoff_bounded;
      Alcotest.test_case "par_for covers exactly once" `Quick
        test_par_for_exactly_once;
      Alcotest.test_case "fork tree joins across domains" `Quick
        test_fork_tree;
      Alcotest.test_case "nested par_for" `Quick test_nested_par_for;
      Alcotest.test_case "kernels equal serial at 2-3 domains" `Quick
        test_kernel_equality;
      Alcotest.test_case "session reuse" `Quick test_session_reuse;
      Alcotest.test_case "nested run rejected" `Quick test_no_nesting;
      Alcotest.test_case "api outside run rejected" `Quick test_outside_run;
      Alcotest.test_case "exceptions propagate and abort" `Quick
        test_exception_propagation;
      Alcotest.test_case "stats and events account" `Quick
        test_stats_accounting;
      Alcotest.test_case "urgency hint forces promotions" `Quick
        test_urgency_promotes;
      Alcotest.test_case "knapsack incumbent is monotone" `Quick
        test_knapsack_incumbent_monotone;
      Alcotest.test_case "strip sizing policy" `Quick test_next_strip_policy;
      Alcotest.test_case "heavy iterations promote" `Quick
        test_heavy_iterations_promote;
      Alcotest.test_case "one-store loop polls rarely" `Quick
        test_one_store_loop_polls_rarely;
      Alcotest.test_case "beat bound after a slowdown" `Quick
        test_slowdown_beat_bound;
      Alcotest.test_case "time-sized strips exactly once" `Quick
        test_time_sized_strips_exactly_once;
      Alcotest.test_case "untraced allocation budget" `Quick
        test_untraced_allocation_budget;
      Alcotest.test_case "promoted child keeps its parent's strip" `Quick
        test_promoted_child_keeps_strip;
    ] )
