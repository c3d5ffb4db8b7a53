(* Tests for the real effects-based heartbeat runtime at one domain
   (serial with promotion): serial equivalence under promotion on
   every kernel, join correctness, nesting, promotion policy, and the
   serve pool's lease watchdog. *)

module Hb = Par.Runtime
module E = Par.Runtime.Exec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* An aggressive config so promotions definitely fire in fast tests:
   a tiny heart. *)
let hot : Hb.config =
  { Hb.default_config with
    domains = 1; heart_us = 5. }

let run f = Hb.run ~config:hot f

let test_ring_events_match_stats () =
  (* the worker's trace ring records exactly the events the runtime's
     own counters count *)
  let tr = Obs.Trace.create () in
  let n = 200_000 in
  let total = ref 0 in
  let (), { total = st; _ } =
    Hb.run
      ~config:{ hot with tracer = Some tr }
      (fun () -> Hb.par_for ~lo:0 ~hi:n (fun i -> total := !total + (i mod 3)))
  in
  check_int "the ring dropped nothing" 0 (Obs.Trace.total_dropped tr);
  let count = Suite_obs.ring_count tr in
  let starts = count (function Task_start _ -> true | _ -> false)
  and finishes = count (function Task_finish _ -> true | _ -> false)
  and resumes = count (( = ) Obs.Event.Join_resume)
  and suspends = count (( = ) Obs.Event.Join_suspend) in
  check "work done" true (!total > 0);
  check_int "beats" st.beats (count (( = ) Obs.Event.Beat));
  check_int "loop promotions" st.loop_promotions
    (count (( = ) (Obs.Event.Promote { kind = `Loop })));
  check_int "branch promotions" st.branch_promotions
    (count (( = ) (Obs.Event.Promote { kind = `Branch })));
  check_int "suspends" st.joins suspends;
  check_int "resumes" st.resumes resumes;
  check_int "every task run started" st.tasks_run starts;
  (* at one domain a task is main, a promoted child or a resumed
     parent *)
  check_int "tasks = main + promoted + resumed"
    (1 + st.promotions + st.resumes)
    st.tasks_run;
  check_int "every started task finished" starts finishes;
  check "suspends eventually resumed" true (resumes <= suspends)

let test_par_for_covers_every_index () =
  let n = 100_000 in
  let hits = Array.make n 0 in
  let (), st = run (fun () -> Hb.par_for ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1)) in
  check "each index exactly once" true (Array.for_all (fun h -> h = 1) hits);
  check "promotions fired" true (st.total.promotions > 0)

let test_par_for_empty_and_single () =
  let count = ref 0 in
  let (), _ = run (fun () -> Hb.par_for ~lo:5 ~hi:5 (fun _ -> incr count)) in
  check_int "empty range" 0 !count;
  let (), _ = run (fun () -> Hb.par_for ~lo:5 ~hi:6 (fun _ -> incr count)) in
  check_int "single iteration" 1 !count

let test_fork2_runs_both () =
  let a = ref 0 and b = ref 0 in
  let (), _ = run (fun () -> Hb.fork2 (fun () -> a := 1) (fun () -> b := 2)) in
  check_int "first branch" 1 !a;
  check_int "second branch" 2 !b

let test_nested_fork2_tree () =
  (* sum the leaves of a depth-12 tree; promotions steal subtrees *)
  let rec sum d =
    if d = 0 then 1
    else begin
      let x = ref 0 and y = ref 0 in
      Hb.fork2 (fun () -> x := sum (d - 1)) (fun () -> y := sum (d - 1));
      !x + !y
    end
  in
  let total, st = run (fun () -> sum 12) in
  check_int "leaf count" 4096 total;
  check "branch promotions" true (st.total.branch_promotions > 0);
  check_int "joins resolved completely" st.total.joins st.total.joins

let test_nested_par_for () =
  let n = 300 in
  let acc = Array.make (n * n) 0 in
  let (), _ =
    run (fun () ->
        Hb.par_for ~lo:0 ~hi:n (fun i ->
            Hb.par_for ~lo:0 ~hi:n (fun j -> acc.((i * n) + j) <- i + j)))
  in
  check "nested loops cover the grid" true
    (Array.for_all Fun.id
       (Array.init (n * n) (fun k -> acc.(k) = (k / n) + (k mod n))))

let test_outermost_first_policy () =
  (* with an outer loop and an inner loop live, the first promotion
     must split the outer range *)
  let (), st =
    run (fun () ->
        Hb.par_for ~lo:0 ~hi:64 (fun _ ->
            Hb.par_for ~lo:0 ~hi:2_000 (fun _ -> ignore (Sys.opaque_identity 0))))
  in
  check "loop promotions dominate" true (st.total.loop_promotions > 0)

let test_exceptions_propagate () =
  check "user exception escapes run" true
    (try
       let _ = run (fun () -> failwith "boom") in
       false
     with Failure m -> m = "boom")

let test_outside_run_rejected () =
  check "par_for outside run" true
    (try
       Hb.par_for ~lo:0 ~hi:1 ignore;
       false
     with Invalid_argument _ -> true)

let test_result_value_returned () =
  let v, _ = run (fun () -> 40 + 2) in
  check_int "result" 42 v

let test_kernels_under_heartbeat () =
  let rng = Sim.Prng.create ~seed:5 in
  (* plus-reduce *)
  let a =
    Workloads.Plus_reduce.input (module Workloads.Exec.Serial) ~rng ~n:50_000
  in
  let expected = Workloads.Plus_reduce.sum_serial a in
  let got, _ = run (fun () -> Workloads.Plus_reduce.sum ~grain:512 (module E) a) in
  check "plus-reduce" true (abs_float (got -. expected) < 1e-6 *. abs_float expected);
  (* spmv *)
  let m = Workloads.Csr.random ~rng ~nrows:2_000 ~ncols:2_000 ~max_row_len:40 in
  let x = Array.init 2_000 float_of_int in
  let y_ser = Workloads.Csr.spmv_serial m x in
  let y = Array.make 2_000 0. in
  let (), _ = run (fun () -> Workloads.Csr.spmv (module E) m x y) in
  check "spmv" true
    (Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6 *. (1. +. abs_float v)) y y_ser);
  (* mergesort *)
  let arr =
    Workloads.Mergesort.uniform_input (module Workloads.Exec.Serial) ~rng ~n:60_000
  in
  let sorted_ref = Array.copy arr in
  Array.sort compare sorted_ref;
  let (), _ = run (fun () -> Workloads.Mergesort.sort ~grain:512 (module E) arr) in
  check "mergesort" true (arr = sorted_ref);
  (* floyd-warshall *)
  let g = Workloads.Floyd_warshall.random_graph ~rng ~n:48 () in
  let d_ser = Array.map Array.copy g in
  Workloads.Floyd_warshall.run_serial d_ser;
  let d = Array.map Array.copy g in
  let (), _ = run (fun () -> Workloads.Floyd_warshall.run (module E) d) in
  check "floyd-warshall" true (d = d_ser);
  (* kmeans assignment checksum *)
  let kmeans () =
    Workloads.Kmeans.create (module Workloads.Exec.Serial)
      ~rng:(Sim.Prng.create ~seed:8) ~n:1_500 ~dims:3 ~k:4
  in
  let st1 = kmeans () and st2 = kmeans () in
  let _ = Workloads.Kmeans.run (module Workloads.Exec.Serial) st1 ~rounds:4 in
  let _ = run (fun () -> Workloads.Kmeans.run (module E) st2 ~rounds:4) in
  check_int "kmeans checksum" (Workloads.Kmeans.checksum st1)
    (Workloads.Kmeans.checksum st2);
  (* knapsack optimum is schedule-independent *)
  let inst = Workloads.Knapsack.instance ~rng ~n:20 in
  let res, _ = run (fun () -> Workloads.Knapsack.search (module E) inst) in
  check_int "knapsack optimum" (Workloads.Knapsack.dp_optimum inst) res.best

let test_serial_when_heart_huge () =
  let cfg =
    { Hb.default_config with domains = 1; heart_us = 1e9 }
  in
  let (), st =
    Hb.run ~config:cfg (fun () -> Hb.par_for ~lo:0 ~hi:10_000 ignore)
  in
  check_int "no promotions with huge heart" 0 st.total.promotions

let test_stalls_flow_into_metrics () =
  (* the serve pool's lease-watchdog trips must reach the unified
     Obs.Metrics snapshot next to the session's own counters, not stay
     private to Pool.stats *)
  let pool =
    Serve.Pool.create
      ~config:{ Serve.Pool.default_config with runtime = hot; lease_s = 0.005 }
      ()
  in
  let work =
    Serve.Pool.Thunk
      (fun (module E : Workloads.Exec.S) ->
        let acc = Atomic.make 0 in
        E.par_for ~lo:0 ~hi:20_000 (fun i ->
            ignore (Atomic.fetch_and_add acc i));
        (* wedge far past the lease without reaching a poll *)
        Unix.sleepf 0.2;
        Atomic.get acc)
  in
  (match Serve.Pool.submit pool ~tenant:"a" work with
  | Ok t -> ignore (Serve.Pool.await ~timeout_s:30. pool t)
  | Error _ -> Alcotest.fail "submit rejected");
  let st = Serve.Pool.close pool in
  check "watchdog tripped" true (st.stalls_detected >= 1);
  match st.runtime with
  | None -> Alcotest.fail "no runtime stats after close"
  | Some { total = rt; _ } ->
      let m = Serve.Pool.metrics st in
      check_int "stalls fold into Obs.Metrics" st.stalls_detected
        m.Obs.Metrics.stalls;
      check_int "beats fold" rt.beats m.Obs.Metrics.beats;
      check_int "promotions fold" rt.promotions m.Obs.Metrics.promotions;
      check_int "joins fold" rt.joins m.Obs.Metrics.joins;
      check_int "single-domain snapshot" 1 m.Obs.Metrics.domains

let prop_par_for_sums_correctly =
  QCheck.Test.make ~name:"heartbeat par_for computes serial sums" ~count:25
    QCheck.(int_range 0 5_000)
    (fun n ->
      let acc = Atomic.make 0 in
      let (), _ =
        run (fun () ->
            Hb.par_for ~lo:0 ~hi:n (fun i -> ignore (Atomic.fetch_and_add acc i)))
      in
      Atomic.get acc = n * (n - 1) / 2)

let suite =
  ( "heartbeat-runtime",
    [
      Alcotest.test_case "par_for coverage" `Quick test_par_for_covers_every_index;
      Alcotest.test_case "ring events match stats" `Quick
        test_ring_events_match_stats;
      Alcotest.test_case "empty/single ranges" `Quick
        test_par_for_empty_and_single;
      Alcotest.test_case "fork2 both branches" `Quick test_fork2_runs_both;
      Alcotest.test_case "nested fork2 tree" `Quick test_nested_fork2_tree;
      Alcotest.test_case "nested par_for" `Quick test_nested_par_for;
      Alcotest.test_case "outermost-first policy" `Quick
        test_outermost_first_policy;
      Alcotest.test_case "exception propagation" `Quick
        test_exceptions_propagate;
      Alcotest.test_case "usage outside run" `Quick test_outside_run_rejected;
      Alcotest.test_case "result value" `Quick test_result_value_returned;
      Alcotest.test_case "all kernels under heartbeat" `Slow
        test_kernels_under_heartbeat;
      Alcotest.test_case "huge heart stays serial" `Quick
        test_serial_when_heart_huge;
      Alcotest.test_case "stall watchdog reaches Obs.Metrics" `Quick
        test_stalls_flow_into_metrics;
      QCheck_alcotest.to_alcotest prop_par_for_sums_correctly;
    ] )
