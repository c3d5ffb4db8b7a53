(** Summary statistics used throughout the benchmark harness: means,
    geometric means (the paper reports geomeans for every figure),
    normalisation and speedup helpers. *)

let mean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(** Geometric mean; requires strictly positive inputs (returns [nan]
    otherwise, mirroring how a log would fail). *)
let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
      if List.exists (fun x -> x <= 0.) xs then nan
      else
        exp
          (List.fold_left (fun acc x -> acc +. log x) 0. xs
          /. float_of_int (List.length xs))

(* Like [mean]/[geomean], the extrema of an empty sample are [nan]
   (not ±infinity, which would silently poison downstream ratios). *)
let min_l (xs : float list) : float =
  match xs with [] -> nan | _ -> List.fold_left min infinity xs

let max_l (xs : float list) : float =
  match xs with [] -> nan | _ -> List.fold_left max neg_infinity xs

let stddev (xs : float list) : float =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
        /. float_of_int (List.length xs - 1)
      in
      sqrt var

(** [speedup ~baseline t] — how many times faster than [baseline] a
    time [t] is. *)
let speedup ~(baseline : float) (t : float) : float =
  if t = 0. then nan else baseline /. t

(** [normalized ~baseline t] — execution time normalized to a baseline
    (the y-axis of Figures 6, 8, 9 and 13). *)
let normalized ~(baseline : float) (t : float) : float =
  if baseline = 0. then nan else t /. baseline

(** Percentage change of [b] relative to [a]: positive = [b] larger. *)
let percent_change ~(from_ : float) (to_ : float) : float =
  if from_ = 0. then nan else (to_ -. from_) /. from_ *. 100.

let clamp ~lo ~hi (x : float) : float = Float.min hi (Float.max lo x)

(** Re-exports of the sibling modules, so that [Stats] is the single
    entry point of the library ([stats.ml] is the library interface
    module; without these aliases [Table], [Json] and [Chrome_trace]
    would be hidden). *)
module Table = Table

module Json = Json

module Chrome_trace = Chrome_trace
