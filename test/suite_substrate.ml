(* Tests for the simulator substrate: PRNG, event queue, work-stealing
   deque, interrupt mechanisms. *)

open Sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1_000_000) (Prng.int b 1_000_000)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let da = List.init 20 (fun _ -> Prng.int a 1000) in
  let db = List.init 20 (fun _ -> Prng.int b 1000) in
  check "different seeds differ" true (da <> db)

let prop_prng_bounds =
  QCheck.Test.make ~name:"Prng.int within bounds" ~count:500
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create ~seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prop_prng_float_unit =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let x = Prng.float rng in
      x >= 0. && x < 1.)

let test_prng_float_mean () =
  let rng = Prng.create ~seed:7 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float rng
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:10.
  done;
  let mean = !sum /. float_of_int n in
  check "exponential mean near 10" true (abs_float (mean -. 10.) < 0.5)

(* Pearson chi-square statistic for [draws] samples over [buckets]
   equiprobable cells. With df = buckets-1 the statistic concentrates
   around df ± a few sqrt(2·df); the bounds below are ~5 sigma. *)
let chi_square ~buckets ~draws sample =
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let b = sample () in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = float_of_int draws /. float_of_int buckets in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts

let test_prng_chi_square () =
  let rng = Prng.create ~seed:0xC0FFEE in
  let buckets = 64 in
  let stat = chi_square ~buckets ~draws:65_536 (fun () -> Prng.int rng buckets) in
  (* df = 63: mean 63, sigma ~11.2 *)
  check "chi-square plausible" true (stat > 20. && stat < 130.)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:42 in
  let child = Prng.split parent in
  (* the old split bug: child replayed the parent's exact future *)
  let cs = List.init 32 (fun _ -> Prng.int child 1_000_000) in
  let ps = List.init 32 (fun _ -> Prng.int parent 1_000_000) in
  check "child does not replay parent" true (cs <> ps);
  let overlap = List.filter (fun x -> List.mem x ps) cs in
  check "sequences essentially disjoint" true (List.length overlap <= 2);
  (* successive splits from the same parent are distinct streams *)
  let p2 = Prng.create ~seed:42 in
  let c1 = Prng.split p2 and c2 = Prng.split p2 in
  let xs = List.init 32 (fun _ -> Prng.int c1 1_000_000) in
  let ys = List.init 32 (fun _ -> Prng.int c2 1_000_000) in
  check "sibling streams differ" true (xs <> ys)

let test_prng_split_chi_square () =
  (* first output of each of 16k children must itself be uniform *)
  let parent = Prng.create ~seed:7 in
  let buckets = 64 in
  let stat =
    chi_square ~buckets ~draws:16_384 (fun () ->
        Prng.int (Prng.split parent) buckets)
  in
  check "split chi-square plausible" true (stat > 20. && stat < 130.)

let test_prng_split_preserves_default_stream () =
  (* splitting must advance the parent deterministically, and creating
     a stream must reproduce the exact pre-split sequence (the whole
     test suite depends on seeded sequences staying bit-identical) *)
  let a = Prng.create ~seed:9 and b = Prng.create ~seed:9 in
  let _ = Prng.split a and _ = Prng.split b in
  for _ = 1 to 50 do
    check_int "parents agree after split" (Prng.int a 1_000_000)
      (Prng.int b 1_000_000)
  done

(* Known answers, pinned so that a change to how the generator stores
   or advances its state cannot move any stream: every seeded input,
   checksum, simulator figure and fuzz corpus in the repository rests
   on them. *)
let test_prng_known_answers () =
  let check_i64 = Alcotest.(check int64) in
  let rng = Prng.create ~seed:42 in
  List.iter
    (fun want -> check_i64 "seed 42 next_int64" want (Prng.next_int64 rng))
    [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ];
  let rng = Prng.create ~seed:0xBEA7 in
  List.iter
    (fun want -> check_int "seed 0xBEA7 int" want (Prng.int rng 1_000_000_000))
    [ 254457288; 972130833; 301923547 ];
  Alcotest.(check (float 0.)) "seed 0xBEA7 float" 0x1.b0f5712fb8afap-2
    (Prng.float rng);
  let child = Prng.split rng in
  check_i64 "split child" 0x9627F2F6655A84F1L (Prng.next_int64 child);
  check_i64 "parent after split" 0x18B4047EF3506B86L (Prng.next_int64 rng)

(* Random access.  Each stream maker returns a fresh generator in the
   same state, for several seeds and for split children (whose gamma is
   not the golden one); [k] covers 0, 1, either side of a 4096-draw
   block and a large odd distance. *)
let prng_makers =
  List.concat_map
    (fun seed ->
      [
        (Printf.sprintf "seed %d" seed, fun () -> Prng.create ~seed);
        ( Printf.sprintf "seed %d child" seed,
          fun () -> Prng.split (Prng.create ~seed) );
      ])
    [ 0; 42; 0xBEA7; -7 ]

let jump_distances = [ 0; 1; 4095; 4096; 1_000_003 ]
let draws t = List.init 8 (fun _ -> Prng.next_int64 t)

let test_prng_jump_skip () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun k ->
          let label what = Printf.sprintf "%s, k=%d: %s" name k what in
          let walked = make () in
          for _ = 1 to k do
            ignore (Prng.next_int64 walked)
          done;
          let expected = draws walked in
          let t = make () and reference = make () in
          let j = Prng.jump t k in
          check (label "jump leaves t unchanged") true
            (draws t = draws reference);
          check (label "jump = k draws, unmoved by t's") true
            (draws j = expected);
          check (label "drawing from the jump never moves t") true
            (draws t = draws reference);
          let s = make () in
          Prng.skip s k;
          check (label "skip = k draws") true (draws s = expected))
        jump_distances)
    prng_makers;
  Alcotest.check_raises "negative jump"
    (Invalid_argument "Prng: negative draw count") (fun () ->
      ignore (Prng.jump (Prng.create ~seed:1) (-1)))

(* Bulk fills equal loops of single draws, over empty, partial and
   whole ranges, and leave the generator where the loop would. *)
let test_prng_fills () =
  let bits a = Array.map Int64.bits_of_float a in
  let ranges = [ (0, 0); (7, 0); (20, 0); (0, 20); (3, 10); (19, 1) ] in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun (pos, len) ->
          let label what = Printf.sprintf "%s, [%d,+%d): %s" name pos len what in
          let t = make () and u = make () in
          let a = Array.make 20 (-1.) and b = Array.make 20 (-1.) in
          Prng.fill_float t a ~pos ~len;
          for i = pos to pos + len - 1 do
            b.(i) <- Prng.float u
          done;
          check (label "fill_float = float loop") true (bits a = bits b);
          check (label "fill_float leaves the loop's state") true
            (Prng.next_int64 t = Prng.next_int64 u);
          List.iter
            (fun bound ->
              let t = make () and u = make () in
              let a = Array.make 20 (-1) and b = Array.make 20 (-1) in
              Prng.fill_int t a ~pos ~len bound;
              for i = pos to pos + len - 1 do
                b.(i) <- Prng.int u bound
              done;
              check (label (Printf.sprintf "fill_int %d = int loop" bound)) true
                (a = b);
              check (label "fill_int leaves the loop's state") true
                (Prng.next_int64 t = Prng.next_int64 u))
            [ 1; 7; 1_000_000_000; max_int ])
        ranges)
    prng_makers;
  let t = Prng.create ~seed:3 in
  List.iter
    (fun bound ->
      List.iter
        (fun len ->
          Alcotest.check_raises
            (Printf.sprintf "fill_int bound %d, len %d" bound len)
            (Invalid_argument "Prng.fill_int: bound must be positive")
            (fun () -> Prng.fill_int t (Array.make 4 0) ~pos:0 ~len bound))
        [ 0; 4 ])
    [ 0; -3 ];
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "fill_float out of range [%d,+%d)" pos len)
        (Invalid_argument "Prng.fill_float")
        (fun () -> Prng.fill_float t (Array.make 4 0.) ~pos ~len);
      Alcotest.check_raises
        (Printf.sprintf "fill_int out of range [%d,+%d)" pos len)
        (Invalid_argument "Prng.fill_int")
        (fun () -> Prng.fill_int t (Array.make 4 0) ~pos ~len 10))
    [ (-1, 1); (0, 5); (3, 2); (5, 0); (0, -1) ]

let test_zipf_head_heavy () =
  let rng = Prng.create ~seed:3 in
  let n = 10_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Prng.zipf rng ~n:1000 ~s:1.5 = 1 then incr ones
  done;
  (* rank 1 should dominate under a Zipf law *)
  check "head heavy" true (!ones > n / 10)

(* --- Eventq --- *)

let test_eventq_orders_by_time () =
  let q = Eventq.create ~dummy:(-1) in
  List.iter (fun t -> Eventq.add q ~time:t t) [ 5; 1; 9; 3; 7; 2; 8 ];
  let out = ref [] in
  let rec drain () =
    match Eventq.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  check "sorted" true (List.rev !out = [ 1; 2; 3; 5; 7; 8; 9 ])

let test_eventq_fifo_on_ties () =
  let q = Eventq.create ~dummy:(-1) in
  List.iter (fun v -> Eventq.add q ~time:10 v) [ 1; 2; 3; 4 ];
  let next () = snd (Option.get (Eventq.pop q)) in
  check "insertion order on equal times" true
    (List.init 4 (fun _ -> next ()) = [ 1; 2; 3; 4 ])

let prop_eventq_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 200) (int_bound 100_000))
    (fun times ->
      let q = Eventq.create ~dummy:0 in
      List.iter (fun t -> Eventq.add q ~time:t t) times;
      let rec drain last =
        match Eventq.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

let test_eventq_interleaved () =
  let q = Eventq.create ~dummy:0 in
  Eventq.add q ~time:10 10;
  Eventq.add q ~time:5 5;
  check "pop min" true (Eventq.pop q = Some (5, 5));
  Eventq.add q ~time:1 1;
  check "pop new min" true (Eventq.pop q = Some (1, 1));
  check "peek" true (Eventq.peek_time q = Some 10);
  check_int "length" 1 (Eventq.length q)

(* --- Wsdeque --- *)

let test_deque_lifo_owner () =
  let d = Wsdeque.create () in
  List.iter (Wsdeque.push_bottom d) [ 1; 2; 3 ];
  check "owner pops newest" true (Wsdeque.pop_bottom d = Some 3);
  check "then next" true (Wsdeque.pop_bottom d = Some 2)

let test_deque_fifo_thief () =
  let d = Wsdeque.create () in
  List.iter (Wsdeque.push_bottom d) [ 1; 2; 3 ];
  check "thief steals oldest" true (Wsdeque.steal_top d = Some 1);
  check "owner unaffected" true (Wsdeque.pop_bottom d = Some 3);
  check "thief again" true (Wsdeque.steal_top d = Some 2);
  check "empty" true (Wsdeque.pop_bottom d = None)

let prop_deque_model =
  (* model: a list; push_bottom appends, pop_bottom takes last,
     steal_top takes first *)
  QCheck.Test.make ~name:"deque matches list model" ~count:300
    QCheck.(list (int_bound 2))
    (fun ops ->
      let d = Wsdeque.create () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr counter;
              Wsdeque.push_bottom d !counter;
              model := !model @ [ !counter ];
              true
          | 1 -> (
              let got = Wsdeque.pop_bottom d in
              match List.rev !model with
              | [] -> got = None
              | x :: rest ->
                  model := List.rev rest;
                  got = Some x)
          | _ -> (
              let got = Wsdeque.steal_top d in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some x))
        ops
      && Wsdeque.length d = List.length !model)

let test_deque_stress_no_loss_no_dup () =
  (* long random op sequence with unique task ids: every pushed id is
     observed exactly once, either popped/stolen during the run or
     still resident at the end *)
  let rng = Prng.create ~seed:0xDE0E in
  let d = Wsdeque.create () in
  let next_id = ref 0 in
  let pushed = Hashtbl.create 1024 in
  let seen = Hashtbl.create 1024 in
  let observe id =
    check "no duplicate delivery" false (Hashtbl.mem seen id);
    check "delivered id was pushed" true (Hashtbl.mem pushed id);
    Hashtbl.replace seen id ()
  in
  for _ = 1 to 20_000 do
    match Prng.int rng 3 with
    | 0 ->
        incr next_id;
        Hashtbl.replace pushed !next_id ();
        Wsdeque.push_bottom d !next_id
    | 1 -> Option.iter observe (Wsdeque.pop_bottom d)
    | _ -> Option.iter observe (Wsdeque.steal_top d)
  done;
  let rec drain () =
    match Wsdeque.steal_top d with
    | Some id ->
        observe id;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "all pushed ids accounted for" (Hashtbl.length pushed)
    (Hashtbl.length seen)

let test_deque_stress_order_invariants () =
  (* thief always sees the oldest resident task, owner the newest —
     checked against a list model over a random interleaving *)
  let rng = Prng.create ~seed:0xFACE in
  let d = Wsdeque.create () in
  let model = ref [] in
  let next_id = ref 0 in
  for _ = 1 to 10_000 do
    match Prng.int rng 4 with
    | 0 | 1 ->
        incr next_id;
        Wsdeque.push_bottom d !next_id;
        model := !model @ [ !next_id ]
    | 2 -> (
        match (Wsdeque.pop_bottom d, List.rev !model) with
        | None, [] -> ()
        | Some got, newest :: rest ->
            check_int "owner pops newest" newest got;
            model := List.rev rest
        | got, _ ->
            Alcotest.failf "owner/model mismatch: got %s"
              (match got with Some x -> string_of_int x | None -> "None"))
    | _ -> (
        match (Wsdeque.steal_top d, !model) with
        | None, [] -> ()
        | Some got, oldest :: rest ->
            check_int "thief steals oldest" oldest got;
            model := rest
        | got, _ ->
            Alcotest.failf "thief/model mismatch: got %s"
              (match got with Some x -> string_of_int x | None -> "None"))
  done;
  check_int "final length agrees" (List.length !model) (Wsdeque.length d)

let test_eventq_stress_stable_ties () =
  (* random times drawn from a small range to force many collisions;
     dequeue order must be nondecreasing in time and, within a time,
     must preserve insertion order (seq tie-break) *)
  let rng = Prng.create ~seed:0xBEA7 in
  let q = Eventq.create ~dummy:(0, 0) in
  let n = 5_000 in
  for i = 1 to n do
    let t = Prng.int rng 50 in
    Eventq.add q ~time:t (t, i)
  done;
  let last_time = ref min_int and last_seq = ref 0 and popped = ref 0 in
  let rec drain () =
    match Eventq.pop q with
    | None -> ()
    | Some (t, (t', i)) ->
        incr popped;
        check_int "payload time matches key" t t';
        check "nondecreasing time" true (t >= !last_time);
        if t = !last_time then
          check "stable tie-break (insertion order)" true (i > !last_seq);
        last_time := t;
        last_seq := i;
        drain ()
  in
  drain ();
  check_int "all events popped" n !popped

(* --- Interrupts --- *)

let params heart_us = { Params.default with heart_us }

let drain_deliveries t n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Interrupts.next t with
      | None -> List.rev acc
      | Some d -> go (d :: acc) (k - 1)
  in
  go [] n

let test_interrupts_off () =
  let t = Interrupts.create (params 100.) Interrupts.Off ~mem_intensity:0. in
  check "no deliveries" true (Interrupts.next t = None)

let test_nautilus_hits_target () =
  let p = params 100. in
  let t = Interrupts.create p Interrupts.Nautilus_ipi ~mem_intensity:0.9 in
  let ds = drain_deliveries t (15 * 20) in
  check_int "no losses" 0 (Interrupts.lost t);
  (* every core beats once per period *)
  let per_core = Array.make 15 0 in
  List.iter (fun (d : Interrupts.delivery) -> per_core.(d.core) <- per_core.(d.core) + 1) ds;
  Array.iter (fun c -> check_int "even distribution" 20 c) per_core;
  (* deliveries in each period land at nominal + latency *)
  let d0 = List.hd ds in
  check_int "first delivery time" (Params.heart_cycles p + p.ipi_latency) d0.at

let test_ping_thread_loses_signals () =
  let t =
    Interrupts.create (params 100.) Interrupts.Ping_thread ~mem_intensity:0.8
  in
  let ds = drain_deliveries t 1_000 in
  check "some signals lost" true (Interrupts.lost t > 0);
  check "some delivered" true (List.length ds = 1_000)

let test_ping_thread_saturates_at_20us () =
  (* at 20 µs the 15-worker sweep (15 × signal_send) exceeds ♥, so
     the achieved inter-sweep gap is sweep-bound, not ♥-bound *)
  let p = params 20. in
  let t = Interrupts.create p Interrupts.Ping_thread ~mem_intensity:0. in
  let ds = drain_deliveries t 3_000 in
  let horizon = (List.nth ds 2_999).at in
  let rate_per_cycle = 3_000. /. float_of_int horizon in
  let target_per_cycle = 15. /. float_of_int (Params.heart_cycles p) in
  check "achieved below 60% of target" true
    (rate_per_cycle < 0.6 *. target_per_cycle)

let test_nautilus_no_saturation_at_20us () =
  let p = params 20. in
  let t = Interrupts.create p Interrupts.Nautilus_ipi ~mem_intensity:0.9 in
  let ds = drain_deliveries t 3_000 in
  let horizon = (List.nth ds 2_999).at in
  let rate_per_cycle = 3_000. /. float_of_int horizon in
  let target_per_cycle = 15. /. float_of_int (Params.heart_cycles p) in
  check "achieves >= 95% of target" true
    (rate_per_cycle >= 0.95 *. target_per_cycle)

let test_papi_costlier_handler () =
  let p = params 100. in
  let tp = Interrupts.create p Interrupts.Papi ~mem_intensity:0. in
  let tn = Interrupts.create p Interrupts.Nautilus_ipi ~mem_intensity:0. in
  let dp = Option.get (Interrupts.next tp) in
  let dn = Option.get (Interrupts.next tn) in
  check "PAPI handler costlier" true (dp.handler_cost > dn.handler_cost)

let test_deliveries_monotone () =
  List.iter
    (fun mech ->
      let t = Interrupts.create (params 50.) mech ~mem_intensity:0.4 in
      let ds = drain_deliveries t 500 in
      let rec mono last = function
        | [] -> true
        | (d : Interrupts.delivery) :: rest ->
            (* ping-thread jitter may reorder within a sweep by up to
               the jitter bound *)
            d.at + Params.default.signal_jitter >= last && mono d.at rest
      in
      check "monotone-ish" true (mono 0 ds))
    [ Interrupts.Ping_thread; Interrupts.Papi; Interrupts.Nautilus_ipi ]

let test_fault_drop_counts () =
  let f = { Interrupts.no_faults with drop = 0.5 } in
  let t =
    Interrupts.create ~faults:f (params 100.) Interrupts.Nautilus_ipi
      ~mem_intensity:0.
  in
  let ds = drain_deliveries t 500 in
  check_int "500 delivered" 500 (List.length ds);
  check "injected drops counted" true (Interrupts.dropped t > 100);
  check_int "drops are the only losses on nautilus" (Interrupts.dropped t)
    (Interrupts.lost t);
  check_int "delivered counter matches returns" 500 (Interrupts.delivered t)

let test_fault_dup_counts () =
  let f = { Interrupts.no_faults with dup = 0.5 } in
  let t =
    Interrupts.create ~faults:f (params 100.) Interrupts.Nautilus_ipi
      ~mem_intensity:0.
  in
  let ds = drain_deliveries t 600 in
  check_int "600 delivered" 600 (List.length ds);
  check "duplicates injected" true (Interrupts.duplicated t > 100);
  check_int "no losses" 0 (Interrupts.lost t)

let test_faults_off_stream_unchanged () =
  (* the fault layer with no_faults must be byte-identical to the
     native stream — enabling the plumbing cannot shift any test *)
  let a = Interrupts.create (params 100.) Interrupts.Ping_thread ~mem_intensity:0.5 in
  let b =
    Interrupts.create ~faults:Interrupts.no_faults (params 100.)
      Interrupts.Ping_thread ~mem_intensity:0.5
  in
  let da = drain_deliveries a 300 and db = drain_deliveries b 300 in
  check "identical streams" true (da = db)

let suite =
  ( "substrate",
    [
      Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seed sensitivity" `Quick
        test_prng_seed_sensitivity;
      QCheck_alcotest.to_alcotest prop_prng_bounds;
      QCheck_alcotest.to_alcotest prop_prng_float_unit;
      Alcotest.test_case "prng uniform mean" `Quick test_prng_float_mean;
      Alcotest.test_case "prng exponential mean" `Quick
        test_prng_exponential_mean;
      Alcotest.test_case "prng chi-square" `Quick test_prng_chi_square;
      Alcotest.test_case "prng split independence" `Quick
        test_prng_split_independent;
      Alcotest.test_case "prng split chi-square" `Quick
        test_prng_split_chi_square;
      Alcotest.test_case "prng split keeps default stream" `Quick
        test_prng_split_preserves_default_stream;
      Alcotest.test_case "prng known answers" `Quick test_prng_known_answers;
      Alcotest.test_case "prng jump and skip" `Quick test_prng_jump_skip;
      Alcotest.test_case "prng bulk fills" `Quick test_prng_fills;
      Alcotest.test_case "zipf head-heaviness" `Quick test_zipf_head_heavy;
      Alcotest.test_case "eventq time order" `Quick test_eventq_orders_by_time;
      Alcotest.test_case "eventq tie-break order" `Quick
        test_eventq_fifo_on_ties;
      QCheck_alcotest.to_alcotest prop_eventq_sorted;
      Alcotest.test_case "eventq interleaved" `Quick test_eventq_interleaved;
      Alcotest.test_case "deque owner LIFO" `Quick test_deque_lifo_owner;
      Alcotest.test_case "deque thief FIFO" `Quick test_deque_fifo_thief;
      QCheck_alcotest.to_alcotest prop_deque_model;
      Alcotest.test_case "deque stress: no loss, no dup" `Quick
        test_deque_stress_no_loss_no_dup;
      Alcotest.test_case "deque stress: order invariants" `Quick
        test_deque_stress_order_invariants;
      Alcotest.test_case "eventq stress: stable ties" `Quick
        test_eventq_stress_stable_ties;
      Alcotest.test_case "interrupts off" `Quick test_interrupts_off;
      Alcotest.test_case "nautilus hits target" `Quick test_nautilus_hits_target;
      Alcotest.test_case "ping thread loses signals" `Quick
        test_ping_thread_loses_signals;
      Alcotest.test_case "ping thread saturates at 20us" `Quick
        test_ping_thread_saturates_at_20us;
      Alcotest.test_case "nautilus meets 20us" `Quick
        test_nautilus_no_saturation_at_20us;
      Alcotest.test_case "PAPI handler cost" `Quick test_papi_costlier_handler;
      Alcotest.test_case "delivery monotonicity" `Quick test_deliveries_monotone;
      Alcotest.test_case "fault drops counted" `Quick test_fault_drop_counts;
      Alcotest.test_case "fault duplicates counted" `Quick
        test_fault_dup_counts;
      Alcotest.test_case "no_faults stream unchanged" `Quick
        test_faults_off_stream_unchanged;
    ] )
