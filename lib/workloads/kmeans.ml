(** kmeans: Lloyd's algorithm, ported after the Rodinia benchmark the
    paper uses (1 million objects).  Each round assigns every point to
    its nearest centroid (the parallel loop) and recomputes centroids.

    The paper notes the TPAL version pays 17 % extra serial time for
    an auxiliary per-task accumulation structure (§4.4) — that
    constant is recorded in the workload registry, not here. *)

type t = {
  points : float array array;  (** [n][d] *)
  mutable centroids : float array array;  (** [k][d] *)
  assign : int array;  (** [n] *)
}

(** [n] points of [dims] uniform draws each, built in parallel; the
    first centroids are every [(n / k)]-th point.  [n] and [k] must be
    at least 1. *)
let create (module E : Exec.S) ~(rng : Sim.Prng.t) ~(n : int) ~(dims : int)
    ~(k : int) : t =
  if n < 1 then invalid_arg "Kmeans.create: n < 1";
  if k < 1 then invalid_arg "Kmeans.create: k < 1";
  let points = Array.make n [||] in
  Exec.par_draws (module E) ~rng ~per:dims ~n (fun r lo hi ->
      for i = lo to hi - 1 do
        let p = Array.create_float dims in
        Sim.Prng.fill_float r p ~pos:0 ~len:dims;
        points.(i) <- p
      done);
  let centroids = Array.init k (fun i -> Array.copy points.(i * (n / k))) in
  { points; centroids; assign = Array.make n (-1) }

(** Squared Euclidean distance over [a]'s coordinates — {!round}'s
    distance, which it computes inline in the same order. *)
let dist2 (a : float array) (b : float array) : float =
  let acc = ref 0. in
  for j = 0 to Array.length a - 1 do
    let d = a.(j) -. b.(j) in
    acc := !acc +. (d *. d)
  done;
  !acc

(** One Lloyd round: parallel assignment, then a serial centroid
    update (the update is O(n·d) but memory-bound and cheap relative
    to assignment for moderate [k]). Returns the number of points
    whose assignment changed.

    The distance is {!dist2} written out inline: a call would return
    each distance as a boxed float.  Four centroids share a pass over
    a point's coordinates, so four independent chains of adds overlap
    where one chain would wait out each add's latency.  Each
    chain sums in {!dist2}'s coordinate order, and the strict [<]
    updates run in centroid order, so ties go to the lower index and
    every assignment is the one {!dist2} picks.  A remainder loop
    takes the last [k mod 4] centroids one at a time. *)
let round (module E : Exec.S) (st : t) : int =
  let n = Array.length st.points in
  let cs = st.centroids in
  let k = Array.length cs in
  let dims = Array.length st.points.(0) in
  let changed = Array.make n 0 in
  E.par_for ~lo:0 ~hi:n (fun i ->
      let p = st.points.(i) in
      let best = ref 0 and best_d = ref infinity in
      let c = ref 0 in
      while !c + 4 <= k do
        let c0 = !c in
        let q0 = cs.(c0) and q1 = cs.(c0 + 1) in
        let q2 = cs.(c0 + 2) and q3 = cs.(c0 + 3) in
        let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
        for j = 0 to Array.length p - 1 do
          let x = p.(j) in
          let d0 = x -. q0.(j) and d1 = x -. q1.(j) in
          let d2 = x -. q2.(j) and d3 = x -. q3.(j) in
          a0 := !a0 +. (d0 *. d0);
          a1 := !a1 +. (d1 *. d1);
          a2 := !a2 +. (d2 *. d2);
          a3 := !a3 +. (d3 *. d3)
        done;
        if !a0 < !best_d then begin
          best_d := !a0;
          best := c0
        end;
        if !a1 < !best_d then begin
          best_d := !a1;
          best := c0 + 1
        end;
        if !a2 < !best_d then begin
          best_d := !a2;
          best := c0 + 2
        end;
        if !a3 < !best_d then begin
          best_d := !a3;
          best := c0 + 3
        end;
        c := c0 + 4
      done;
      for c = !c to k - 1 do
        let q = cs.(c) in
        let acc = ref 0. in
        for j = 0 to Array.length p - 1 do
          let d = p.(j) -. q.(j) in
          acc := !acc +. (d *. d)
        done;
        if !acc < !best_d then begin
          best_d := !acc;
          best := c
        end
      done;
      if st.assign.(i) <> !best then changed.(i) <- 1;
      st.assign.(i) <- !best);
  (* centroid update *)
  let sums = Array.init k (fun _ -> Array.make dims 0.) in
  let counts = Array.make k 0 in
  for i = 0 to n - 1 do
    let c = st.assign.(i) in
    counts.(c) <- counts.(c) + 1;
    for j = 0 to dims - 1 do
      sums.(c).(j) <- sums.(c).(j) +. st.points.(i).(j)
    done
  done;
  st.centroids <-
    Array.init k (fun c ->
        if counts.(c) = 0 then st.centroids.(c)
        else Array.map (fun s -> s /. float_of_int counts.(c)) sums.(c));
  Array.fold_left ( + ) 0 changed

(** Run [rounds] Lloyd iterations; returns the final assignment
    churn (for convergence checks). *)
let run (module E : Exec.S) (st : t) ~(rounds : int) : int =
  let last = ref 0 in
  for _ = 1 to rounds do
    last := round (module E) st
  done;
  !last

(** Checksum over assignments for cross-scheduler validation. *)
let checksum (st : t) : int =
  let acc = ref 0 in
  Array.iteri (fun i c -> acc := !acc + ((i mod 97) * (c + 1))) st.assign;
  !acc
