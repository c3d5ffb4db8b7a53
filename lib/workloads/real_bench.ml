(** Named registry of real workload kernels with deterministic inputs
    and integer checksums — the shared vocabulary of the benchmark
    pipeline ([bench/main.ml --par-bench], whose [--trace] run also
    prints each kernel's scheduler counters and GC census), the
    serving layer's kernel requests ([tpal_serve --kernel NAME]), and
    the multi-domain equality tests: every consumer runs the same
    kernel on the same input through any {!Exec.S} executor and
    compares checksums.

    Every entry is {e schedule-deterministic}: its checksum is
    identical under the serial executor and the heartbeat runtime at
    any domain count.  That
    is by construction — fixed reduction trees (plus_reduce, spmv),
    disjoint index writes with a join between dependent sweeps
    (mergesort, mandelbrot, kmeans, srad), a benign self-row race
    with a zero diagonal (floyd_warshall) — except for knapsack, whose
    node count is schedule-dependent; its checksum is the optimum
    only, which the monotone atomic incumbent makes exact under any
    schedule.

    Inputs are rebuilt on every run from fixed PRNG seeds, so a
    registry entry can be executed any number of times in any order.
    The builders take the run's executor, as the kernels do: each
    fills its input in parallel blocks of one random-access
    [Sim.Prng] stream ({!Exec.par_draws}), bit-identical to the serial
    build, and allocates nothing per element beyond the input itself.
    Two builders stay serial: Floyd-Warshall's graph draws one or two
    values per cell, so its stream cannot be cut into blocks, and
    knapsack's instance has 26 items. *)

type t = {
  name : string;
  descr : string;
  base_items : scale:int -> int;
      (** nominal input size at a given scale, for reporting *)
  run : (module Exec.S) -> scale:int -> int;
      (** build the deterministic input, run the kernel, return the
          checksum *)
}

(* Fold a float into a checksum exactly: schedule-determinism above is
   bit-level, so no tolerance is needed or wanted. *)
let float_bits (x : float) : int =
  Int64.to_int (Int64.bits_of_float x) land max_int

let seed = 0xBEA7

let plus_reduce =
  let n ~scale = 400_000 * scale in
  {
    name = "plus_reduce";
    descr = "sum of a large float array (fixed reduction tree)";
    base_items = (fun ~scale -> n ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let a = Plus_reduce.input (module E) ~rng ~n:(n ~scale) in
        float_bits (Plus_reduce.sum (module E) a));
  }

let mergesort =
  let n ~scale = 200_000 * scale in
  {
    name = "mergesort";
    descr = "parallel mergesort with parallel merge";
    base_items = (fun ~scale -> n ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let a = Mergesort.uniform_input (module E) ~rng ~n:(n ~scale) in
        Mergesort.sort (module E) a;
        if not (Mergesort.sorted a) then
          failwith "real_bench: mergesort produced an unsorted array";
        Mergesort.checksum a);
  }

let mandelbrot =
  let height ~scale = 120 * scale in
  let width = 400 in
  {
    name = "mandelbrot";
    descr = "escape-time fractal render (irregular rows)";
    base_items = (fun ~scale -> width * height ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let img =
          Mandelbrot.render (module E) ~width ~height:(height ~scale) ()
        in
        Mandelbrot.checksum img);
  }

let spmv =
  let nrows ~scale = 30_000 * scale in
  {
    name = "spmv";
    descr = "sparse matrix-vector product, power-law rows";
    base_items = (fun ~scale -> nrows ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let nrows = nrows ~scale in
        let m = Csr.powerlaw (module E) ~rng ~nrows ~ncols:nrows ~max_row_len:64 in
        let x = Array.create_float nrows in
        Exec.par_blocks (module E) ~n:nrows (fun lo hi ->
            for i = lo to hi - 1 do
              x.(i) <- 1.0 +. (float_of_int (i mod 13) /. 13.)
            done);
        let y = Array.make nrows 0. in
        Csr.spmv (module E) m x y;
        let sum = ref 0 in
        for r = 0 to nrows - 1 do
          sum := !sum lxor float_bits y.(r)
        done;
        !sum);
  }

let kmeans =
  let n ~scale = 12_000 * scale in
  {
    name = "kmeans";
    descr = "Lloyd iterations, 8-d points, k=12";
    base_items = (fun ~scale -> n ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let st = Kmeans.create (module E) ~rng ~n:(n ~scale) ~dims:8 ~k:12 in
        let (_ : int) = Kmeans.run (module E) st ~rounds:5 in
        Kmeans.checksum st);
  }

let srad =
  let rows ~scale = 120 * scale in
  {
    name = "srad";
    descr = "speckle-reducing anisotropic diffusion, 2 sweeps/iter";
    base_items = (fun ~scale -> rows ~scale * 160);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let st = Srad.create (module E) ~rng ~rows:(rows ~scale) ~cols:160 in
        Srad.run (module E) st ~iterations:4;
        float_bits (Srad.checksum st));
  }

let floyd_warshall =
  (* cubic kernel: scale the vertex count sub-linearly *)
  let n ~scale = 96 + (32 * (scale - 1)) in
  {
    name = "floyd_warshall";
    descr = "all-pairs shortest paths (benign zero-diagonal race)";
    base_items = (fun ~scale -> n ~scale);
    run =
      (fun (module E : Exec.S) ~scale ->
        let rng = Sim.Prng.create ~seed in
        let dist = Floyd_warshall.random_graph ~rng ~n:(n ~scale) () in
        Floyd_warshall.run (module E) dist;
        Floyd_warshall.checksum dist);
  }

let knapsack =
  (* exponential kernel: fixed item count; the checksum is the optimum
     only (node counts are schedule-dependent under parallel pruning) *)
  let items = 26 in
  {
    name = "knapsack";
    descr = "branch-and-bound 0/1 knapsack (optimum checksummed)";
    base_items = (fun ~scale:_ -> items);
    run =
      (fun (module E : Exec.S) ~scale:_ ->
        let rng = Sim.Prng.create ~seed in
        let inst = Knapsack.instance ~rng ~n:items in
        let r = Knapsack.search (module E) inst in
        r.best);
  }

let all : t list =
  [
    plus_reduce;
    mergesort;
    mandelbrot;
    spmv;
    kmeans;
    srad;
    floyd_warshall;
    knapsack;
  ]

let names : string list = List.map (fun b -> b.name) all

let find (name : string) : t option =
  List.find_opt (fun b -> b.name = name) all

(** [run_serial b ~scale] — the reference executor, for checksum and
    wall-clock baselines. *)
let run_serial (b : t) ~(scale : int) : int =
  b.run (module Exec.Serial) ~scale
