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
    Csr.powerlaw (module Exec.Serial) ~rng:(rng ()) ~nrows:2_000 ~ncols:2_000
      ~max_row_len:2_000
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
  let a = Plus_reduce.input (module Exec.Serial) ~rng:(rng ()) ~n:10_000 in
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
  let st = Kmeans.create (module Exec.Serial) ~rng:(rng ()) ~n:600 ~dims:3 ~k:4 in
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
  let st = Srad.create (module Exec.Serial) ~rng:(rng ()) ~rows:32 ~cols:32 in
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
      ("uniform", Mergesort.uniform_input (module Exec.Serial) ~rng:(rng ()) ~n);
      ("descending", Array.init n (fun i -> n - i));
      ("all-equal", Array.make n 7);
      ( "few-distinct",
        Array.map
          (fun x -> x mod 3)
          (Mergesort.uniform_input (module Exec.Serial) ~rng:(rng ()) ~n)
      );
      (* keys whose differences overflow: a select that subtracts
         them picks the wrong run *)
      ( "extremes",
        Array.map
          (fun x -> [| min_int; max_int; 0; -1 |].(x mod 4))
          (Mergesort.uniform_input (module Exec.Serial) ~rng:(rng ()) ~n)
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

(* Parameters under which a kernel would recurse forever or index out
   of bounds are refused at entry.  A grain of 1 is refused too: the
   parallel merge of two one-element runs [1] and [2] splits into
   itself. *)
let test_degenerate_parameters () =
  List.iter
    (fun grain ->
      Alcotest.check_raises
        (Printf.sprintf "sort grain %d" grain)
        (Invalid_argument "Mergesort.sort: grain < 2")
        (fun () -> Mergesort.sort ~grain (module Exec.Serial) [| 1; 2 |]);
      Alcotest.check_raises
        (Printf.sprintf "merge_par grain %d" grain)
        (Invalid_argument "Mergesort.merge_par: grain < 2")
        (fun () ->
          Mergesort.merge_par ~grain (module Exec.Serial) [| 1; 2 |] 0 1 1 2
            (Array.make 2 0) 0))
    [ 1; 0; -1 ];
  let a = [| 3; 1; 2 |] in
  Mergesort.sort ~grain:2 (module Exec.Serial) a;
  check "grain 2 sorts" true (a = [| 1; 2; 3 |]);
  let create ~n ~k () =
    ignore (Kmeans.create (module Exec.Serial) ~rng:(rng ()) ~n ~dims:2 ~k)
  in
  Alcotest.check_raises "kmeans n 0" (Invalid_argument "Kmeans.create: n < 1")
    (create ~n:0 ~k:1);
  Alcotest.check_raises "kmeans k 0" (Invalid_argument "Kmeans.create: k < 1")
    (create ~n:10 ~k:0)

(* --- builders and hot loops against the code they replaced --- *)

(* [Csr.powerlaw] as a list per row, then [of_rows] — the
   implementation the flat two-pass build replaced, kept as its
   oracle.  (ocamlopt evaluates the tuple right to left: value, then
   column.) *)
let powerlaw_rows ~rng ~nrows ~ncols ~max_row_len ?(s = 1.9) () =
  Array.init nrows (fun _ ->
      let rank = 1 + Sim.Prng.int rng nrows in
      let len =
        max 1
          (int_of_float
             (float_of_int max_row_len /. (float_of_int rank ** (s -. 1.))))
      in
      let len = min len ncols in
      List.init len (fun _ -> (Sim.Prng.int rng ncols, Sim.Prng.float rng)))

let powerlaw_lists ~rng ~nrows ~ncols ~max_row_len () : Csr.t =
  Csr.of_rows ~ncols (powerlaw_rows ~rng ~nrows ~ncols ~max_row_len ())

(* the escape-time recursion the loop replaced *)
let escape_time_rec ~max_iter cx cy =
  let rec go i x y =
    if i >= max_iter then max_iter
    else
      let x2 = x *. x and y2 = y *. y in
      if x2 +. y2 > 4.0 then i
      else go (i + 1) (x2 -. y2 +. cx) ((2.0 *. x *. y) +. cy)
  in
  go 0 0. 0.

(* the branchy merge the branch-free select replaced *)
let merge_branchy src lo1 hi1 lo2 hi2 dst dlo =
  let i = ref lo1 and j = ref lo2 and k = ref dlo in
  while !i < hi1 && !j < hi2 do
    let x = src.(!i) and y = src.(!j) in
    if x <= y then begin
      dst.(!k) <- x;
      incr i
    end
    else begin
      dst.(!k) <- y;
      incr j
    end;
    incr k
  done;
  while !i < hi1 do
    dst.(!k) <- src.(!i);
    incr i;
    incr k
  done;
  while !j < hi2 do
    dst.(!k) <- src.(!j);
    incr j;
    incr k
  done

let float_bits a = Array.map Int64.bits_of_float a

let same_csr (a : Csr.t) (b : Csr.t) =
  a.nrows = b.nrows && a.ncols = b.ncols && a.row_ptr = b.row_ptr
  && a.col_idx = b.col_idx
  && float_bits a.values = float_bits b.values

(* battery shape; small ncols, so long rows repeat columns and the
   arrays are compacted; s near 1, so most rows are long; s = 1 and
   s < 1, where the length does not fall with the rank; fewer rows
   than one block *)
let powerlaw_shapes =
  [
    ("battery", 30_000, 30_000, 64, 1.9);
    ("ncols 8", 5_000, 8, 64, 1.9);
    ("s 1.05", 3_000, 3_000, 64, 1.05);
    ("s 1", 500, 500, 20, 1.0);
    ("s 0.7", 500, 60, 4, 0.7);
    ("under a block", 100, 100, 64, 1.9);
  ]

let test_powerlaw_oracle () =
  let compacted = ref false in
  List.iter
    (fun (name, nrows, ncols, max_row_len, s) ->
      let r1 = rng () and r2 = rng () in
      let rows = powerlaw_rows ~rng:r1 ~nrows ~ncols ~max_row_len ~s () in
      let want = Csr.of_rows ~ncols rows in
      let drawn = Array.fold_left (fun acc l -> acc + List.length l) 0 rows in
      if Csr.nnz want < drawn then compacted := true;
      let got =
        Csr.powerlaw ~s (module Exec.Serial) ~rng:r2 ~nrows ~ncols ~max_row_len
      in
      check (name ^ ": row_ptr") true (got.row_ptr = want.row_ptr);
      check (name ^ ": col_idx") true (got.col_idx = want.col_idx);
      check (name ^ ": values bit for bit") true
        (float_bits got.values = float_bits want.values);
      check (name ^ ": rng left where the list build leaves it") true
        (Sim.Prng.next_int64 r1 = Sim.Prng.next_int64 r2))
    powerlaw_shapes;
  check "a shape drops duplicate columns, so the arrays are compacted" true
    !compacted

(* Every builder, serially and on a 2-domain session whose every poll
   beats (so promotions split the block loop mid-fill), against the
   serial loop it replaced: fewer elements than one block, an exact
   multiple of the block, and a ragged last block.  Each must also
   leave its generator where the loop does. *)
let test_builders_parallel_equal_serial () =
  let block = Exec.block in
  let config =
    { Par.Runtime.default_config with domains = 2; heart_us = 0. }
  in
  let promotions = ref 0 in
  let agree label ~oracle ~build ~same =
    let ro = rng () and rs = rng () and rp = rng () in
    let o = oracle ro in
    let s = build (module Exec.Serial : Exec.S) rs in
    let p, st =
      Par.Runtime.run ~config (fun () -> build (module Par.Runtime.Exec : Exec.S) rp)
    in
    promotions := !promotions + st.total.promotions;
    check (label ^ ", serial") true (same o s);
    check (label ^ ", 2 domains") true (same o p);
    let next = Sim.Prng.next_int64 ro in
    check (label ^ ": generators end where the loop's does") true
      (Sim.Prng.next_int64 rs = next && Sim.Prng.next_int64 rp = next)
  in
  let same_floats a b = float_bits a = float_bits b in
  List.iter
    (fun n ->
      let label = Printf.sprintf "n=%d: %s" n in
      agree (label "plus_reduce input") ~same:same_floats
        ~oracle:(fun rng -> Array.init n (fun _ -> Sim.Prng.float rng))
        ~build:(fun e rng -> Plus_reduce.input e ~rng ~n);
      agree (label "mergesort input") ~same:( = )
        ~oracle:(fun rng -> Array.init n (fun _ -> Sim.Prng.int rng 1_000_000_000))
        ~build:(fun e rng -> Mergesort.uniform_input e ~rng ~n);
      agree (label "kmeans points") ~same:(Array.for_all2 same_floats)
        ~oracle:(fun rng ->
          Array.init n (fun _ -> Array.init 3 (fun _ -> Sim.Prng.float rng)))
        ~build:(fun e rng -> (Kmeans.create e ~rng ~n ~dims:3 ~k:4).points);
      agree (label "srad image") ~same:same_floats
        ~oracle:(fun rng -> Array.init n (fun _ -> exp (Sim.Prng.float rng)))
        ~build:(fun e rng -> (Srad.create e ~rng ~rows:(n / 4) ~cols:4).image);
      agree (label "csr powerlaw") ~same:same_csr
        ~oracle:(fun rng -> powerlaw_lists ~rng ~nrows:n ~ncols:n ~max_row_len:64 ())
        ~build:(fun e rng -> Csr.powerlaw e ~rng ~nrows:n ~ncols:n ~max_row_len:64))
    [ 100; 2 * block; (2 * block) + 100 ];
  check "promotions landed mid-fill" true (!promotions > 0)

let test_escape_time_oracle () =
  List.iter
    (fun max_iter ->
      for ix = 0 to 80 do
        for iy = 0 to 30 do
          let cx = -2.5 +. (0.05 *. float_of_int ix)
          and cy = -1.5 +. (0.1 *. float_of_int iy) in
          let want = escape_time_rec ~max_iter cx cy in
          let got = Mandelbrot.escape_time ~max_iter cx cy in
          if got <> want then
            Alcotest.failf "escape_time max_iter=%d (%g, %g): %d, recursion %d"
              max_iter cx cy got want
        done
      done)
    [ -1; 0; 1; 2; 5; 100; 1_000 ]

(* Run pairs for [merge]: duplicates, negatives, the extreme keys,
   empty sides, all-equal runs, one run wholly below the other, and
   random runs over a few keys including the extremes. *)
let merge_pairs =
  let r = rng () in
  let keys = [| min_int; -7; -1; 0; 1; 7; max_int |] in
  let random_run len =
    let a = Array.init len (fun _ -> keys.(Sim.Prng.int r (Array.length keys))) in
    Array.sort compare a;
    a
  in
  [
    ([| 1; 2; 2; 3 |], [| 2; 2; 4 |]);
    ([| -5; -3; 0 |], [| -4; -4; 1 |]);
    ([| min_int; 0; max_int |], [| min_int; -1; max_int |]);
    ([| min_int; min_int |], [| max_int |]);
    ([| max_int |], [| min_int; min_int |]);
    ([| max_int; max_int |], [| -1; 0; max_int |]);
    ([||], [| 1; 2 |]);
    ([| 1; 2 |], [||]);
    ([||], [||]);
    ([| 7; 7; 7 |], [| 7; 7 |]);
    ([| 1; 2; 3 |], [| 10; 11 |]);
    ([| 10; 11 |], [| 1; 2; 3 |]);
  ]
  @ List.init 20 (fun i -> (random_run (i * 3), random_run (i * 5 mod 17)))

(* Each run pair sits inside [src] with cells before, between and after
   it, and merges into the middle of a [dst] of sentinels, so a cell
   written outside the destination range shows as a difference. *)
let test_merge_oracle () =
  List.iteri
    (fun c (r1, r2) ->
      let n1 = Array.length r1 and n2 = Array.length r2 in
      let src = Array.concat [ [| 5 |]; r1; [| 6; 6 |]; r2; [| 8 |] ] in
      let lo1 = 1 and lo2 = n1 + 3 in
      let fresh () = Array.make (n1 + n2 + 4) 424242 in
      let want = fresh () and got = fresh () in
      merge_branchy src lo1 (lo1 + n1) lo2 (lo2 + n2) want 2;
      Mergesort.merge src lo1 (lo1 + n1) lo2 (lo2 + n2) got 2;
      if got <> want then
        Alcotest.failf "merge pair %d (%d + %d elements): not the branchy merge"
          c n1 n2)
    merge_pairs

(* [round]'s assignment against {!Kmeans.dist2} with strict [<] in
   centroid order, for k below, at and around the four-centroid groups
   and dims from 1 up; the churn is the count of points whose
   assignment moved. *)
let kmeans_round_agrees (st : Kmeans.t) ~rounds label =
  for round = 1 to rounds do
    let frozen = Array.map Array.copy st.centroids in
    let before = Array.copy st.assign in
    let churn = Kmeans.round (module Exec.Serial) st in
    Array.iteri
      (fun i got ->
        let best = ref 0 and best_d = ref infinity in
        Array.iteri
          (fun c q ->
            let d = Kmeans.dist2 st.points.(i) q in
            if d < !best_d then begin
              best_d := d;
              best := c
            end)
          frozen;
        if got <> !best then
          Alcotest.failf "%s round %d, point %d: assigned %d, dist2 says %d" label
            round i got !best)
      st.assign;
    let moved = ref 0 in
    Array.iteri (fun i c -> if c <> before.(i) then incr moved) st.assign;
    check_int (Printf.sprintf "%s round %d churn" label round) !moved churn
  done

let test_kmeans_round_oracle () =
  List.iter
    (fun k ->
      List.iter
        (fun dims ->
          let st = Kmeans.create (module Exec.Serial) ~rng:(rng ()) ~n:400 ~dims ~k in
          kmeans_round_agrees st ~rounds:3 (Printf.sprintf "k=%d dims=%d" k dims))
        [ 1; 3; 8 ])
    [ 1; 3; 4; 5; 12; 13 ];
  (* identical centroids, within a group of four (0, 1), across groups
     (2, 5) and into the remainder (3, 8): the lower index wins, so the
     higher twin gets no point *)
  let n = 450 and k = 9 in
  let st = Kmeans.create (module Exec.Serial) ~rng:(rng ()) ~n ~dims:3 ~k in
  List.iter
    (fun (lo, hi) -> st.centroids.(hi) <- Array.copy st.centroids.(lo))
    [ (0, 1); (2, 5); (3, 8) ];
  kmeans_round_agrees st ~rounds:1 "twins";
  List.iter
    (fun (lo, hi) ->
      check_int (Printf.sprintf "twin %d's own point" lo) lo
        st.assign.(lo * (n / k));
      check (Printf.sprintf "twin %d gets nothing" hi) true
        (not (Array.mem hi st.assign)))
    [ (0, 1); (2, 5); (3, 8) ]

(* Allocation budgets, in minor-heap words.  The test is built like the
   benchmark, in dune's default profile, whose [-opaque] stops calls
   across modules from inlining: these catch an edit that makes a hot
   loop box its floats again.  The count is the domain's, so each
   budget takes the least of three runs, in case another thread
   allocated meanwhile. *)
let minor_words (f : unit -> unit) : float =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_allocation_budget () =
  let base = minor_words ignore in
  let words f =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ -> minor_words f -. base))
  in
  let cx = Sys.opaque_identity (-0.5) and cy = Sys.opaque_identity 0.1 in
  Alcotest.(check (float 0.)) "escape_time: 0 words" 0.
    (words (fun () ->
         ignore
           (Sys.opaque_identity (Mandelbrot.escape_time ~max_iter:10_000 cx cy))));
  let r = rng () in
  let fa = Array.create_float 10_000 and ia = Array.make 10_000 0 in
  Alcotest.(check (float 0.)) "fill_float: 0 words" 0.
    (words (fun () -> Sim.Prng.fill_float r fa ~pos:0 ~len:10_000));
  Alcotest.(check (float 0.)) "fill_int: 0 words" 0.
    (words (fun () -> Sim.Prng.fill_int r ia ~pos:0 ~len:10_000 1_000));
  let n = 4_000 and k = 12 in
  let st = Kmeans.create (module Exec.Serial) ~rng:(rng ()) ~n ~dims:8 ~k in
  let w = words (fun () -> ignore (Kmeans.round (module Exec.Serial) st)) in
  (* a boxed distance alone would be 2 words per (point, centroid) *)
  if w > float_of_int n then
    Alcotest.failf "Kmeans.round: %.0f words for n=%d, k=%d (budget %d)" w n k n;
  let n = 10_000 in
  let a = Mergesort.uniform_input (module Exec.Serial) ~rng:(rng ()) ~n in
  let buf = Array.make n 0 in
  Alcotest.(check (float 0.)) "merge: 0 words" 0.
    (words (fun () -> Mergesort.merge a 0 (n / 2) (n / 2) n buf 0));
  Alcotest.(check (float 0.)) "seq_sort: 0 words" 0.
    (words (fun () -> Mergesort.seq_sort a buf 0 n));
  (* the pixel array plus a few words per row (its closures and boxed
     [cy]); a boxed [cx] alone would be 2 words per pixel *)
  let width = 400 and height = 8 in
  let budget = (width * height) + (32 * height) in
  let w =
    words (fun () ->
        ignore (Mandelbrot.render (module Exec.Serial) ~width ~height ()))
  in
  if w > float_of_int budget then
    Alcotest.failf "Mandelbrot.render: %.0f words for %dx%d (budget %d)" w width
      height budget

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
      Alcotest.test_case "powerlaw vs list build" `Quick test_powerlaw_oracle;
      Alcotest.test_case "builders: 2 domains = serial" `Quick
        test_builders_parallel_equal_serial;
      Alcotest.test_case "escape_time vs recursion" `Quick test_escape_time_oracle;
      Alcotest.test_case "merge vs branchy merge" `Quick test_merge_oracle;
      Alcotest.test_case "degenerate parameters" `Quick test_degenerate_parameters;
      Alcotest.test_case "kmeans round vs dist2" `Quick test_kmeans_round_oracle;
      Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
      Alcotest.test_case "real_bench known checksums" `Quick
        test_real_bench_known_checksums;
      Alcotest.test_case "registry completeness" `Quick test_registry_complete;
      Alcotest.test_case "registry sanity" `Quick test_registry_irs_sane;
      Alcotest.test_case "registry determinism" `Quick
        test_registry_deterministic_work;
    ] )
