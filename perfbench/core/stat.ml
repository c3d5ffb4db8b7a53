(** Sample arithmetic for the benchmark: nearest-rank percentiles that
    carry their sample count, quartiles, medians and geometric means.

    Every percentile here is a nearest-rank one: the [p]-th percentile
    of [n] sorted samples is the sample at 1-based rank [ceil (p * n)].
    It is always an observed value, and [beyond] says how many samples
    lie strictly above that rank — the count that tells whether a p99
    rests on real data (at least ten samples past it) or on one
    outlier. *)

(* [p * n] is computed in floating point: 0.99 * 100 must give rank
   99, not 100, so shave a rounding hair before the ceiling. *)
let rank ~(n : int) (p : float) : int =
  if n <= 0 then invalid_arg "Stat.rank: no samples";
  let r = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

(** [percentile sorted p] on an ascending array. *)
let percentile (sorted : float array) (p : float) : float =
  sorted.(rank ~n:(Array.length sorted) p - 1)

(** Samples strictly past the [p]-th percentile's rank. *)
let beyond ~(n : int) (p : float) : int = n - rank ~n p

let sorted_copy (xs : float array) : float array =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

type summary = { n : int; q1 : float; p50 : float; q3 : float }

let summarize (xs : float array) : summary =
  let a = sorted_copy xs in
  { n = Array.length a; q1 = percentile a 0.25; p50 = percentile a 0.50; q3 = percentile a 0.75 }

let median (xs : float array) : float = percentile (sorted_copy xs) 0.5

(** Geometric mean of positive values. *)
let geomean (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.geomean: no samples";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Stat.geomean: non-positive")
    xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int n)
