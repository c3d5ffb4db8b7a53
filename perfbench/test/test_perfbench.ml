(* Tests for the benchmark's own arithmetic: percentiles with their
   sample counts, geomean, rate pacing, and span sums and residuals. *)

open Perfbench_core

let feq = Alcotest.float 1e-9

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let s = Stat.summarize xs in
  Alcotest.(check int) "n" 100 s.n;
  Alcotest.check feq "p50 is the 50th smallest" 50. s.p50;
  Alcotest.check feq "p99 is the 99th smallest" 99. (Stat.percentile (Stat.sorted_copy xs) 0.99);
  Alcotest.check feq "q1" 25. s.q1;
  Alcotest.check feq "q3" 75. s.q3;
  Alcotest.check feq "p100 is the largest" 100. (Stat.percentile (Stat.sorted_copy xs) 1.);
  Alcotest.(check int) "one sample beyond p99 of 100" 1 (Stat.beyond ~n:100 0.99);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stat.beyond ~n:1000 0.99);
  Alcotest.check feq "single sample" 7. (Stat.percentile [| 7. |] 0.99);
  Alcotest.check feq "median of an even count is the lower middle" 2.
    (Stat.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stat.rank: no samples") (fun () ->
      ignore (Stat.percentile [||] 0.5))

let geomean () =
  Alcotest.check feq "geomean 2 8" 4. (Stat.geomean [| 2.; 8. |]);
  Alcotest.check feq "geomean of ones" 1. (Stat.geomean [| 1.; 1.; 1. |]);
  Alcotest.check (Alcotest.float 1e-12) "geomean of reciprocals" 1. (Stat.geomean [| 0.5; 2. |]);
  Alcotest.check_raises "zero rejected" (Invalid_argument "Stat.geomean: non-positive") (fun () ->
      ignore (Stat.geomean [| 1.; 0. |]))

let arrivals () =
  let a = Pace.arrivals ~seed:7 ~rate_rps:9000. ~n:100_000 in
  Alcotest.(check bool) "same seed, same schedule" true (a = Pace.arrivals ~seed:7 ~rate_rps:9000. ~n:100_000);
  Alcotest.(check bool) "another seed, another schedule" false
    (a = Pace.arrivals ~seed:8 ~rate_rps:9000. ~n:100_000);
  Alcotest.(check bool) "due times increase" true
    (Array.for_all Fun.id (Array.init 99_999 (fun i -> a.(i) < a.(i + 1))));
  let r = Pace.offered_rps a in
  Alcotest.(check bool) (Printf.sprintf "offered %.0f within 2%% of 9000" r) true
    (Float.abs (r -. 9000.) < 180.)

(* A virtual clock: each reading costs [tick], and a sleep overshoots by
   [slack] — a timer that always wakes late. *)
let virtual_clock ~tick ~slack =
  let t = ref 0. and sleeps = ref 0 in
  let now () =
    t := !t +. tick;
    !t
  in
  let sleep d =
    incr sleeps;
    t := !t +. d +. slack
  in
  (now, sleep, sleeps)

let pacing () =
  (* the sleep stops [spin_s] short of the due time, so a 30 us
     overshoot with a 50 us spin window still sends on time *)
  let now, sleep, sleeps = virtual_clock ~tick:1e-7 ~slack:30e-6 in
  let sent = Pace.wait_until ~now ~sleep ~spin_s:50e-6 1e-3 in
  Alcotest.(check int) "slept once" 1 !sleeps;
  Alcotest.(check bool) "sent no earlier than due" true (sent >= 1e-3);
  Alcotest.(check bool) "late by at most one clock tick" true (sent -. 1e-3 <= 1e-7 +. 1e-12);
  (* a gap inside the spin window is spun, never slept *)
  let now, sleep, sleeps = virtual_clock ~tick:1e-7 ~slack:30e-6 in
  ignore (Pace.wait_until ~now ~sleep ~spin_s:50e-6 20e-6);
  Alcotest.(check int) "no sleep inside the spin window" 0 !sleeps;
  (* an overshoot longer than the window shows up as lateness *)
  let now, sleep, _ = virtual_clock ~tick:1e-7 ~slack:80e-6 in
  let sent = Pace.wait_until ~now ~sleep ~spin_s:50e-6 1e-3 in
  Alcotest.(check bool) "late by the excess overshoot" true
    (Float.abs (sent -. 1e-3 -. 30e-6) < 1e-6);
  (* a due time already past returns at once *)
  let now, sleep, sleeps = virtual_clock ~tick:1e-7 ~slack:0. in
  ignore (now ());
  ignore (Pace.wait_until ~now ~sleep ~spin_s:50e-6 0.);
  Alcotest.(check int) "no sleep when already late" 0 !sleeps

let spans () =
  let sp = Spans.create () in
  let req = Spans.intern sp "request" and a = Spans.intern sp "a" and b = Spans.intern sp "b" in
  Alcotest.(check int) "interning is stable" req (Spans.intern sp "request");
  (* request 0 is tiled exactly by its children; request 1 has a 5 ns gap *)
  let r0 = Spans.add sp ~name:req ~parent:(-1) ~ticket:0 ~start_ns:100 ~end_ns:200 in
  ignore (Spans.add sp ~name:a ~parent:r0 ~ticket:0 ~start_ns:100 ~end_ns:130);
  ignore (Spans.add sp ~name:b ~parent:r0 ~ticket:0 ~start_ns:130 ~end_ns:200);
  let r1 = Spans.add sp ~name:req ~parent:(-1) ~ticket:1 ~start_ns:300 ~end_ns:400 in
  ignore (Spans.add sp ~name:a ~parent:r1 ~ticket:1 ~start_ns:300 ~end_ns:350);
  ignore (Spans.add sp ~name:b ~parent:r1 ~ticket:1 ~start_ns:355 ~end_ns:400);
  (* grow past the initial capacity *)
  for i = 0 to 3000 do
    ignore (Spans.add sp ~name:a ~parent:(-1) ~ticket:(i + 2) ~start_ns:i ~end_ns:(i + 1))
  done;
  Alcotest.(check int) "count" 3007 (Spans.count sp);
  Alcotest.(check (list (pair int int))) "residuals" [ (r0, 0); (r1, 5) ] (Spans.residuals sp);
  Alcotest.(check string) "name" "b" (Spans.name sp 2);
  Alcotest.(check int) "duration" 70 (Spans.duration_ns sp 2)

let json () =
  Alcotest.(check string) "object" {|{"a": 1, "b": [true, null], "c": "q\"x"}|}
    (Json.to_string (Json.Obj [ ("a", Json.Int 1); ("b", Json.Arr [ Json.Bool true; Json.Null ]); ("c", Json.Str "q\"x") ]));
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (Json.Num nan));
  Alcotest.(check (float 0.)) "all digits survive" 0.1 (float_of_string (Json.to_string (Json.Num 0.1)))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentiles carry their sample count" `Quick percentiles;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "seeded arrivals offer the rate" `Quick arrivals;
          Alcotest.test_case "pacing sleeps then spins" `Quick pacing;
          Alcotest.test_case "span sums and residuals" `Quick spans;
          Alcotest.test_case "json numbers and escapes" `Quick json;
        ] );
    ]
