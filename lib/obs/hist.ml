(** Log₂-bucketed latency histograms (nanosecond domain): constant
    space, constant-time insert, percentile estimates good to the
    bucket's factor-of-two resolution with linear interpolation inside
    a bucket — what per-tenant p50/p95/p99 needs without recording
    every sojourn.

    Not thread-safe; owners (the serve pool under its mutex, a bench
    thread) serialize access. *)

let nbuckets = 63

type t = {
  buckets : int array;  (** bucket [i] counts values with [i] significant bits *)
  mutable count : int;
  mutable sum_ns : float;
  mutable min_ns : int;
  mutable max_ns : int;
}

let create () : t =
  {
    buckets = Array.make nbuckets 0;
    count = 0;
    sum_ns = 0.;
    min_ns = max_int;
    max_ns = 0;
  }

(* Number of significant bits of a non-negative int: 0 → 0, 1 → 1,
   [2,4) → 2, [4,8) → 3, ... — the bucket index. *)
let bits (v : int) : int =
  let rec go v n = if v = 0 then n else go (v lsr 1) (n + 1) in
  go v 0

let add_ns (t : t) (v : int) : unit =
  let v = max 0 v in
  let b = min (nbuckets - 1) (bits v) in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum_ns <- t.sum_ns +. float_of_int v;
  if v < t.min_ns then t.min_ns <- v;
  if v > t.max_ns then t.max_ns <- v

let add_s (t : t) (seconds : float) : unit =
  add_ns t (int_of_float (Float.max 0. seconds *. 1e9))

let count (t : t) : int = t.count

let merge_into ~(into : t) (t : t) : unit =
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) t.buckets;
  into.count <- into.count + t.count;
  into.sum_ns <- into.sum_ns +. t.sum_ns;
  if t.count > 0 then begin
    if t.min_ns < into.min_ns then into.min_ns <- t.min_ns;
    if t.max_ns > into.max_ns then into.max_ns <- t.max_ns
  end

(* Bucket [i] spans values [2^(i-1), 2^i - 1] (bucket 0 is exactly 0). *)
let bucket_lo (i : int) : float = if i = 0 then 0. else float_of_int (1 lsl (i - 1))
let bucket_hi (i : int) : float = if i = 0 then 0. else float_of_int ((1 lsl i) - 1)

(** [percentile_ns t p] for [p] in [0, 100]: rank-based with linear
    interpolation inside the landing bucket, clamped to the exact
    observed [min, max]. *)
let percentile_ns (t : t) (p : float) : float =
  if t.count = 0 then Float.nan
  else begin
    let rank =
      Float.max 1. (Float.round (Float.min 100. (Float.max 0. p) /. 100. *. float_of_int t.count))
    in
    let rank = int_of_float rank in
    let i = ref 0 and seen = ref 0 in
    while !seen + t.buckets.(!i) < rank && !i < nbuckets - 1 do
      seen := !seen + t.buckets.(!i);
      incr i
    done;
    let in_bucket = t.buckets.(!i) in
    let est =
      if in_bucket = 0 then bucket_lo !i
      else
        let frac = float_of_int (rank - !seen) /. float_of_int in_bucket in
        bucket_lo !i +. ((bucket_hi !i -. bucket_lo !i) *. frac)
    in
    Float.min (float_of_int t.max_ns) (Float.max (float_of_int t.min_ns) est)
  end

(** Millisecond digest for reports and JSON. *)
type summary = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

let empty_summary =
  { count = 0; mean_ms = Float.nan; p50_ms = Float.nan; p95_ms = Float.nan;
    p99_ms = Float.nan; max_ms = Float.nan }

let summary (t : t) : summary =
  if t.count = 0 then empty_summary
  else
    let ms x = x /. 1e6 in
    {
      count = t.count;
      mean_ms = ms (t.sum_ns /. float_of_int t.count);
      p50_ms = ms (percentile_ns t 50.);
      p95_ms = ms (percentile_ns t 95.);
      p99_ms = ms (percentile_ns t 99.);
      max_ms = ms (float_of_int t.max_ns);
    }

let pp_summary ppf (s : summary) =
  if s.count = 0 then Fmt.string ppf "no samples"
  else
    Fmt.pf ppf "n=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms"
      s.count s.mean_ms s.p50_ms s.p95_ms s.p99_ms s.max_ms

(** The summary as a JSON object (bench rows), in milliseconds to four
    decimals; an empty summary's [nan] statistics print as [null]. *)
let json_of_summary (s : summary) : Stats.Json.t =
  let ms x = Stats.Json.Float (Float.round (x *. 1e4) /. 1e4) in
  Obj
    [ ("count", Int s.count); ("mean_ms", ms s.mean_ms); ("p50_ms", ms s.p50_ms);
      ("p95_ms", ms s.p95_ms); ("p99_ms", ms s.p99_ms); ("max_ms", ms s.max_ms) ]
