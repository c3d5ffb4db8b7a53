(* Tests for the benchmark kernels: correctness against naive oracles,
   generator structure, and the workload registry. *)

open Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rng () = Sim.Prng.create ~seed:1234

(* --- CSR --- *)

let test_csr_of_rows () =
  let m =
    Csr.of_rows ~ncols:4
      [| [ (2, 1.0); (0, 2.0) ]; []; [ (3, 3.0) ] |]
  in
  check_int "nnz" 3 (Csr.nnz m);
  check_int "row 0 length" 2 (Csr.row_length m 0);
  check_int "row 1 empty" 0 (Csr.row_length m 1);
  (* columns sorted *)
  check_int "first col of row 0" 0 m.col_idx.(0)

let test_csr_random_structure () =
  let m = Csr.random ~rng:(rng ()) ~nrows:500 ~ncols:500 ~max_row_len:100 in
  check "every row non-empty" true
    (List.for_all (fun r -> Csr.row_length m r >= 1) (List.init 500 Fun.id));
  check "max row bounded" true
    (List.for_all (fun r -> Csr.row_length m r <= 100) (List.init 500 Fun.id))

let test_csr_powerlaw_head_heavy () =
  let m =
    Csr.powerlaw ~rng:(rng ()) ~nrows:2_000 ~ncols:2_000 ~max_row_len:2_000 ()
  in
  let longest = ref 0 in
  for r = 0 to m.nrows - 1 do
    longest := max !longest (Csr.row_length m r)
  done;
  (* a heavy head row holds a macroscopic share of the non-zeros *)
  check "head row >= 2% of nnz" true
    (float_of_int !longest >= 0.02 *. float_of_int (Csr.nnz m))

let test_csr_arrowhead_shape () =
  let m = Csr.arrowhead ~n:100 in
  check_int "first row dense" 100 (Csr.row_length m 0);
  check_int "other rows: col0 + diagonal" 2 (Csr.row_length m 50);
  check_int "nnz" (100 + (99 * 2)) (Csr.nnz m)

let test_spmv_against_dense () =
  let n = 60 in
  let m = Csr.random ~rng:(rng ()) ~nrows:n ~ncols:n ~max_row_len:20 in
  let x = Array.init n (fun i -> float_of_int (i + 1)) in
  (* dense oracle *)
  let dense = Array.make_matrix n n 0. in
  for r = 0 to n - 1 do
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      dense.(r).(m.col_idx.(k)) <- m.values.(k)
    done
  done;
  let expected =
    Array.init n (fun r ->
        let acc = ref 0. in
        for c = 0 to n - 1 do
          acc := !acc +. (dense.(r).(c) *. x.(c))
        done;
        !acc)
  in
  let got = Csr.spmv_serial m x in
  check "spmv matches dense oracle" true
    (Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) got expected)

let test_spmv_nested_reduction_path () =
  (* force the nested-reduction path with a tiny row_grain *)
  let m = Csr.arrowhead ~n:400 in
  let x = Array.init 400 (fun i -> float_of_int (i mod 5)) in
  let y1 = Csr.spmv_serial m x in
  let y2 = Array.make 400 0. in
  Csr.spmv ~row_grain:32 (module Exec.Serial) m x y2;
  check "nested reduction equals serial" true
    (Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) y1 y2)

(* --- plus-reduce --- *)

let test_plus_reduce () =
  let a = Plus_reduce.input ~rng:(rng ()) ~n:10_000 in
  let naive = Array.fold_left ( +. ) 0. a in
  let got = Plus_reduce.sum ~grain:128 (module Exec.Serial) a in
  check "sum matches fold" true (abs_float (got -. naive) < 1e-6);
  check "empty array" true (Plus_reduce.sum (module Exec.Serial) [||] = 0.)

(* --- mandelbrot --- *)

let test_mandelbrot () =
  let img = Mandelbrot.render_serial ~width:64 ~height:64 () in
  check_int "pixel count" (64 * 64) (Array.length img.pixels);
  (* the corner of the window escapes immediately; the centre-left
     region is interior *)
  check "corner escapes fast" true (img.pixels.(0) < 5);
  check "checksum stable" true (Mandelbrot.checksum img > 0);
  let img2 = Mandelbrot.render_serial ~width:64 ~height:64 () in
  check_int "deterministic" (Mandelbrot.checksum img) (Mandelbrot.checksum img2)

(* --- kmeans --- *)

let test_kmeans_converges () =
  let st = Kmeans.create ~rng:(rng ()) ~n:600 ~dims:3 ~k:4 in
  let churn1 = Kmeans.round (module Exec.Serial) st in
  check "first round assigns everything" true (churn1 > 0);
  let _ = Kmeans.run (module Exec.Serial) st ~rounds:15 in
  (* snapshot the centroids the next assignment will be computed from *)
  let frozen = Array.map Array.copy st.centroids in
  let churn_final = Kmeans.round (module Exec.Serial) st in
  check "assignment churn decreases" true (churn_final < churn1);
  (* every point landed on its nearest frozen centroid *)
  let ok = ref true in
  Array.iteri
    (fun i c ->
      Array.iteri
        (fun c' _ ->
          if
            Kmeans.dist2 st.points.(i) frozen.(c')
            < Kmeans.dist2 st.points.(i) frozen.(c) -. 1e-9
          then ok := false)
        frozen)
    st.assign;
  check "assignments are nearest" true !ok

(* --- srad --- *)

let test_srad_smooths () =
  let st = Srad.create ~rng:(rng ()) ~rows:32 ~cols:32 in
  let variance img =
    let n = Array.length img in
    let mean = Array.fold_left ( +. ) 0. img /. float_of_int n in
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. img
    /. float_of_int n
  in
  let v0 = variance st.image in
  Srad.run (module Exec.Serial) st ~iterations:12;
  let v1 = variance st.image in
  check "diffusion reduces variance" true (v1 < v0);
  check "image stays finite" true
    (Array.for_all (fun x -> Float.is_finite x) st.image)

(* --- floyd-warshall --- *)

let naive_apsp (g : int array array) : int array array =
  let n = Array.length g in
  let d = Array.map Array.copy g in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  d

let test_floyd_warshall () =
  let g = Floyd_warshall.random_graph ~rng:(rng ()) ~n:40 () in
  let expected = naive_apsp g in
  let d = Array.map Array.copy g in
  Floyd_warshall.run_serial d;
  check "matches naive APSP" true (d = expected);
  check "diagonal zero" true
    (Array.for_all Fun.id (Array.init 40 (fun i -> d.(i).(i) = 0)))

(* --- knapsack --- *)

let test_knapsack_optimal () =
  List.iter
    (fun n ->
      let inst = Knapsack.instance ~rng:(rng ()) ~n in
      let res = Knapsack.search_serial inst in
      check_int
        (Printf.sprintf "B&B = DP at n=%d" n)
        (Knapsack.dp_optimum inst) res.best)
    [ 8; 12; 16; 20 ]

let test_knapsack_prunes () =
  let inst = Knapsack.instance ~rng:(rng ()) ~n:18 in
  let res = Knapsack.search_serial inst in
  (* pruning must beat the full 2^18 tree *)
  check "bound prunes the tree" true (res.nodes < 1 lsl 18)

(* --- mergesort --- *)

(* Each (n, grain) pair shapes the leaves: a leaf of at most 32 needs
   no merge pass, leaves of 33-64 need one (odd: the sorted run ends in
   the buffer and is copied back) and leaves of 65-128 two (even);
   n = 1_000 at grain 100 leaves ragged last runs; [None] is the
   default grain. *)
let test_mergesort_sorts () =
  let inputs n =
    [
      ("uniform", Mergesort.uniform_input ~rng:(rng ()) ~n);
      ("descending", Array.init n (fun i -> n - i));
      ("all-equal", Array.make n 7);
      ( "few-distinct",
        Array.map (fun x -> x mod 3) (Mergesort.uniform_input ~rng:(rng ()) ~n)
      );
    ]
  in
  List.iter
    (fun (n, grain) ->
      List.iter
        (fun (kind, a) ->
          let expected = Array.copy a in
          Array.sort compare expected;
          Mergesort.sort ?grain (module Exec.Serial) a;
          check
            (Printf.sprintf "sorted %s n=%d grain=%s" kind n
               (Option.fold ~none:"default" ~some:string_of_int grain))
            true (a = expected))
        (inputs n))
    [
      (0, Some 64);
      (1, Some 64);
      (2, Some 64);
      (20, Some 64);
      (63, Some 64);
      (64, Some 64);
      (65, Some 64);
      (128, Some 128);
      (1_000, Some 64);
      (1_000, Some 128);
      (1_000, Some 100);
      (10_000, Some 64);
      (10_000, None);
    ]

let test_mergesort_exponential_input () =
  let a = Mergesort.exponential_input ~rng:(rng ()) ~n:5_000 in
  Mergesort.sort ~grain:128 (module Exec.Serial) a;
  check "sorted" true (Mergesort.sorted a)

let test_merge_par_correct () =
  let src = Array.append [| 1; 3; 5; 7; 9 |] [| 2; 4; 6; 8 |] in
  let dst = Array.make 9 0 in
  Mergesort.merge_par ~grain:2 (module Exec.Serial) src 0 5 5 9 dst 0;
  check "parallel merge" true (dst = [| 1; 2; 3; 4; 5; 6; 7; 8; 9 |])

(* --- Real_bench known answers --- *)

(* Every kernel's scale-1 serial checksum, pinned: the inputs come from
   [Sim.Prng] and the kernels must stay bit-identical, so a change to
   either that moves an output fails here. *)
let real_bench_checksums =
  [
    ("plus_reduce", 74431235009321116);
    ("mergesort", 20000088134032571);
    ("mandelbrot", 1014216);
    ("spmv", 4490937439522048250);
    ("kmeans", 3780654);
    ("srad", 63101634859194129);
    ("floyd_warshall", 190185);
    ("knapsack", 974);
  ]

let test_real_bench_known_checksums () =
  check "every kernel pinned" true
    (List.map fst real_bench_checksums = Real_bench.names);
  List.iter
    (fun (name, want) ->
      let b = Option.get (Real_bench.find name) in
      check_int name want (Real_bench.run_serial b ~scale:1))
    real_bench_checksums

(* --- the workload registry --- *)

let test_registry_complete () =
  check_int "12 benchmark configurations" 12 (List.length Workload.all);
  check_int "9 iterative" 9 (List.length Workload.iterative);
  check_int "3 recursive" 3 (List.length Workload.recursive);
  check "find works" true (Workload.find "kmeans" <> None);
  check "find fails on junk" true (Workload.find "nope" = None)

let test_registry_irs_sane () =
  List.iter
    (fun (w : Workload.t) ->
      check (w.name ^ ": positive work") true (Workload.serial_work w > 1_000_000);
      check (w.name ^ ": calibrations sane") true
        (w.cilk_dilation_pct >= 100
        && w.tpal_dilation_pct >= 100
        && w.mem_intensity >= 0.
        && w.mem_intensity <= 1.
        && w.bw_cap > 1.))
    Workload.all

let test_registry_deterministic_work () =
  List.iter
    (fun (w : Workload.t) ->
      check_int (w.name ^ ": stable work") (Workload.serial_work w)
        (Workload.serial_work w))
    Workload.all

let suite =
  ( "workloads",
    [
      Alcotest.test_case "csr of_rows" `Quick test_csr_of_rows;
      Alcotest.test_case "csr random structure" `Quick test_csr_random_structure;
      Alcotest.test_case "csr powerlaw head" `Quick test_csr_powerlaw_head_heavy;
      Alcotest.test_case "csr arrowhead shape" `Quick test_csr_arrowhead_shape;
      Alcotest.test_case "spmv vs dense oracle" `Quick test_spmv_against_dense;
      Alcotest.test_case "spmv nested reduction" `Quick
        test_spmv_nested_reduction_path;
      Alcotest.test_case "plus-reduce" `Quick test_plus_reduce;
      Alcotest.test_case "mandelbrot" `Quick test_mandelbrot;
      Alcotest.test_case "kmeans" `Quick test_kmeans_converges;
      Alcotest.test_case "srad smooths" `Quick test_srad_smooths;
      Alcotest.test_case "floyd-warshall vs naive" `Quick test_floyd_warshall;
      Alcotest.test_case "knapsack optimal" `Quick test_knapsack_optimal;
      Alcotest.test_case "knapsack prunes" `Quick test_knapsack_prunes;
      Alcotest.test_case "mergesort sorts" `Quick test_mergesort_sorts;
      Alcotest.test_case "mergesort exponential" `Quick
        test_mergesort_exponential_input;
      Alcotest.test_case "parallel merge" `Quick test_merge_par_correct;
      Alcotest.test_case "real_bench known checksums" `Quick
        test_real_bench_known_checksums;
      Alcotest.test_case "registry completeness" `Quick test_registry_complete;
      Alcotest.test_case "registry sanity" `Quick test_registry_irs_sane;
      Alcotest.test_case "registry determinism" `Quick
        test_registry_deterministic_work;
    ] )
