(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator — steal victims, signal
    jitter, fault injection, workload and fuzz-program generation —
    draws from an explicitly seeded generator so that simulated
    experiments are exactly reproducible run-to-run (a property the
    test suite relies on).

    Streams are {e splittable} in the SplittableRandom sense: each
    stream carries its own odd increment (gamma), and {!split} derives
    a child whose (state, gamma) pair is drawn — and mixed — from the
    parent.  Consumers that interleave draws from several concerns
    (steal-victim sampling, beat jitter, fault injection, program
    generation) give each concern its own split stream, so adding
    draws to one concern cannot perturb another.

    A stream is also random access: {!jump} and {!skip} move [k]
    draws in O(1), so disjoint blocks of one stream can be drawn in
    parallel and still match a serial loop bit for bit. *)

(* State at byte 0 and gamma at byte 8, both unboxed.  A [mutable
   int64] record field boxes every new state and an out-of-line
   [next_int64] boxes every output (8 minor-heap words per [float]
   draw); with the bytes and the [@inline]s below, a draw allocates at
   most its own boxed result, and [int] and [bool] draws nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let make ~(state : int64) ~(gamma : int64) : t =
  let t = Bytes.create 16 in
  Bytes.set_int64_ne t 0 state;
  Bytes.set_int64_ne t 8 gamma;
  t

let create ~(seed : int) : t =
  make ~state:(Int64.of_int seed) ~gamma:golden_gamma

(* Stafford variant-13 mixer — the splitmix64 output function. *)
let[@inline] mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let popcount64 (x : int64) : int =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical x i) 1L = 1L then incr n
  done;
  !n

(* Murmur3-style mixer with different constants than [mix64] (the
   mixGamma of SplittableRandom) — child gammas must come from a
   different function family than the outputs. *)
let mix_gamma (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor z 1L (* gammas must be odd *) in
  (* avoid gammas with too-regular bit structure (few 01/10 pairs) *)
  let pairs = Int64.logxor z (Int64.shift_right_logical z 1) in
  if popcount64 pairs < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let[@inline] advance (t : t) : int64 =
  let s = Int64.add (Bytes.get_int64_ne t 0) (Bytes.get_int64_ne t 8) in
  Bytes.set_int64_ne t 0 s;
  s

let[@inline] next_int64 (t : t) : int64 = mix64 (advance t)

(* The state [k] draws ahead: splitmix64 adds gamma once per draw, so
   the stream is random access (mod 2⁶⁴). *)
let[@inline] ahead (t : t) (k : int) : int64 =
  if k < 0 then invalid_arg "Prng: negative draw count";
  Int64.add (Bytes.get_int64_ne t 0)
    (Int64.mul (Int64.of_int k) (Bytes.get_int64_ne t 8))

(** [jump t k]: a new generator positioned [k] draws ahead of [t] — it
    produces what [t] would after [k] calls to {!next_int64} — leaving
    [t] unchanged.  O(1).  [jump t 0] is a copy. *)
let jump (t : t) (k : int) : t =
  make ~state:(ahead t k) ~gamma:(Bytes.get_int64_ne t 8)

(** [skip t k] advances [t] by [k] draws in O(1). *)
let skip (t : t) (k : int) : unit = Bytes.set_int64_ne t 0 (ahead t k)

(** Independent stream derived from [t], advancing [t] by two draws.
    The child's state and gamma are both freshly mixed, so parent and
    child sequences are statistically independent — in particular the
    child does {e not} replay the parent's future outputs (the defect
    of the previous implementation, which derived the child's state
    from the parent's next state with the same increment). *)
let split (t : t) : t =
  let state = mix64 (advance t) in
  let gamma = mix_gamma (advance t) in
  make ~state ~gamma

(** Uniform integer in [0, bound) for [bound > 0]. *)
let[@inline] int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* mask to the native 62-bit non-negative range before reducing *)
  let x = Int64.to_int (next_int64 t) land max_int in
  x mod bound

(** Uniform float in [0, 1). *)
let[@inline] float (t : t) : float =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992. (* 2^53 *)

let check_fill name (len_a : int) ~(pos : int) ~(len : int) : unit =
  if pos < 0 || len < 0 || pos > len_a - len then invalid_arg name

(** [fill_float t a ~pos ~len] stores [len] successive {!float} draws
    in [a.(pos)] … [a.(pos + len - 1)].  The loop sits here, where the
    draw inlines: a caller in another module cannot inline {!float}
    under [-opaque] (dune's dev profile), so its own loop would box
    every draw. *)
let fill_float (t : t) (a : float array) ~(pos : int) ~(len : int) : unit =
  check_fill "Prng.fill_float" (Array.length a) ~pos ~len;
  for i = pos to pos + len - 1 do
    a.(i) <- float t
  done

(** [fill_int t a ~pos ~len bound]: [len] successive [int t bound]
    draws, stored from [a.(pos)] on, as {!fill_float}. *)
let fill_int (t : t) (a : int array) ~(pos : int) ~(len : int) (bound : int)
    : unit =
  if bound <= 0 then invalid_arg "Prng.fill_int: bound must be positive";
  check_fill "Prng.fill_int" (Array.length a) ~pos ~len;
  for i = pos to pos + len - 1 do
    a.(i) <- int t bound
  done

(** Uniform float in [0, hi). *)
let float_range (t : t) (hi : float) : float = float t *. hi

let bool (t : t) : bool = Int64.logand (next_int64 t) 1L = 1L

(** Exponentially distributed float with the given mean. *)
let exponential (t : t) ~(mean : float) : float =
  let u = Float.max 1e-12 (float t) in
  -.mean *. log u

(** Zipf-like draw over [1..n] with exponent [s]: probability ∝ 1/kˢ.
    Used by the power-law sparse-matrix generator. *)
let zipf (t : t) ~(n : int) ~(s : float) : int =
  (* Inverse-CDF on a precomputation-free approximation: rejection via
     the standard Zipf rejection-inversion is overkill here; a simple
     inverse transform on the harmonic CDF is adequate for workload
     generation and keeps the generator allocation-free. *)
  let u = float t in
  (* approximate inverse of the generalized harmonic CDF *)
  if s = 1.0 then
    let hn = log (float_of_int n +. 1.) in
    let k = exp (u *. hn) in
    max 1 (min n (int_of_float k))
  else
    let p = 1. -. s in
    let hn = ((float_of_int n ** p) -. 1.) /. p in
    let k = ((u *. hn *. p) +. 1.) ** (1. /. p) in
    max 1 (min n (int_of_float k))
