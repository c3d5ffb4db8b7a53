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
    first centroids are every [(n / k)]-th point. *)
let create (module E : Exec.S) ~(rng : Sim.Prng.t) ~(n : int) ~(dims : int)
    ~(k : int) : t =
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
    whose assignment changed.  The distance is {!dist2} written out
    inline: a call would return each distance as a boxed float. *)
let round (module E : Exec.S) (st : t) : int =
  let n = Array.length st.points in
  let k = Array.length st.centroids in
  let dims = Array.length st.points.(0) in
  let changed = Array.make n 0 in
  E.par_for ~lo:0 ~hi:n (fun i ->
      let p = st.points.(i) in
      let best = ref 0 and best_d = ref infinity in
      for c = 0 to k - 1 do
        let q = st.centroids.(c) in
        let acc = ref 0. in
        for j = 0 to Array.length p - 1 do
          let d = p.(j) -. q.(j) in
          acc := !acc +. (d *. d)
        done;
        let d = !acc in
        if d < !best_d then begin
          best_d := d;
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
