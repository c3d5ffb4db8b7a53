(** Deterministic fault injection for the real multi-domain runtime.

    The simulator grew a fault model in the crash-tolerance PR
    ({!Sim.Interrupts}); this is its real-stack analogue.  A {!plan} is
    a seeded schedule of faults, each pinned to a (domain, beat) pair.
    {!Par.Runtime} consults the plan at the same beat-boundary poll
    where promotion happens, so injection rides the heartbeat's
    amortization: a worker with no scheduled faults pays one [None]
    branch per beat, and a session with no plan at all pays nothing —
    the runtime only materializes per-worker chaos state when the plan
    is non-empty, keeping the no-chaos metrics bit-identical.

    Fault kinds, mirroring the simulator's vocabulary where the real
    machine allows:

    - [Stall n]: the domain freezes for [n] beat periods at the
      boundary (a wedged worker; leases/watchdogs must cover for it).
    - [Slow f]: for [f.beats] beats the domain pays an extra
      [(factor - 1)] beat periods of latency per beat (a thermally
      throttled or noisy-neighbour core).
    - [Drop n]: the next [n] observed beats are swallowed — no [Beat]
      event, no promotion — modelling lost or jittered beats.
    - [Raise]: {!Injected} is raised from the poll inside whatever
      task body is running, exercising the structured error-unwinding
      and the serving layer's retry path.

    Crash is deliberately absent: OCaml domains cannot be killed from
    outside, and a cooperative "crash" is exactly [Stall infinity] —
    the lease watchdog path covers it. *)

type fault_kind =
  | Stall of int  (** freeze for [n] beat periods *)
  | Slow of { factor : float; beats : int }
  | Drop of int  (** swallow the next [n] observed beats *)
  | Raise  (** raise {!Injected} inside the running task body *)

type fault = { domain : int; at_beat : int; kind : fault_kind }

type plan = { seed : int; faults : fault list }
(** A full schedule.  [faults] is consulted per worker; [seed] rides
    along for reproducer messages. *)

exception Injected of { domain : int; beat : int }
(** The typed fault raised by a [Raise] entry — callers (the serving
    layer's retry predicate, the fuzz oracle) match on it to tell an
    injected abort from a genuine bug. *)

let () =
  Printexc.register_printer (function
    | Injected { domain; beat } ->
        Some (Printf.sprintf "Par.Chaos.Injected(domain %d, beat %d)" domain beat)
    | _ -> None)

let empty = { seed = 0; faults = [] }
let is_empty (p : plan) = p.faults = []

(** The trace event of a fault that fired: its kind, and the beats it
    stalls, slows or drops. *)
let event : fault_kind -> Obs.Event.t = function
  | Stall n -> Chaos { kind = `Stall; arg = n }
  | Slow { beats; _ } -> Chaos { kind = `Slow; arg = beats }
  | Drop n -> Chaos { kind = `Drop; arg = n }
  | Raise -> Chaos { kind = `Raise; arg = 0 }

let pp_fault ppf (f : fault) =
  match f.kind with
  | Stall n -> Fmt.pf ppf "d%d@%d stall %d" f.domain f.at_beat n
  | Slow { factor; beats } ->
      Fmt.pf ppf "d%d@%d slow %.1fx for %d" f.domain f.at_beat factor beats
  | Drop n -> Fmt.pf ppf "d%d@%d drop %d" f.domain f.at_beat n
  | Raise -> Fmt.pf ppf "d%d@%d raise" f.domain f.at_beat

let pp_plan ppf (p : plan) =
  Fmt.pf ppf "@[<h>seed %d: %a@]" p.seed
    (Fmt.list ~sep:Fmt.comma pp_fault)
    p.faults

(* ------------------------------------------------------------------ *)
(* Seeded generation.  [lib/par] sits below [lib/sim] in the build, so
   it carries its own splitmix64 — same core as [Sim.Prng], and the
   same split-stream discipline as [Sim.Interrupts.random_schedule]:
   the chaos stream is split off [seed lxor 0xC4A5] so plans never
   correlate with whatever the seed also drives (program generation,
   workload inputs). *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let create ~seed = { state = Int64.of_int seed }

  let next (t : t) : int64 =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split (t : t) : t =
    let s = next t in
    { state = Int64.mul s 0x2545F4914F6CDD1DL }

  (* uniform in [0, bound) via the 62 high bits — a 63-bit mask would
     overflow [Int64.to_int] into negatives, and a negative [mod]
     would silently select the match fall-through at the call sites *)
  let int (t : t) (bound : int) : int =
    if bound <= 0 then 0
    else Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

  let float_range (t : t) (width : float) : float =
    let u = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    width *. (u /. 9007199254740992.0 (* 2^53 *))
end

(** [random_plan ~seed ~domains ()] draws a schedule the way
    [Sim.Interrupts.random_schedule] does: a split stream off the run
    seed, [1 + U(max 1 domains)] faults, each pinned to a uniform
    (domain, beat-within-horizon) slot.  [raises] (default [true])
    gates whether [Raise] faults may appear — timing-only plans must
    leave results bit-identical, which is what the fuzz oracle
    checks. *)
let random_plan ?(horizon = 48) ?(raises = true) ~seed ~domains () : plan =
  let rng = Rng.split (Rng.create ~seed:(seed lxor 0xC4A5)) in
  let n_faults = 1 + Rng.int rng (max 1 domains) in
  let kinds = if raises then 4 else 3 in
  let faults =
    List.init n_faults (fun _ ->
        let domain = Rng.int rng (max 1 domains) in
        let at_beat = Rng.int rng (max 1 horizon) in
        let kind =
          match Rng.int rng kinds with
          | 0 -> Stall (1 + Rng.int rng 6)
          | 1 ->
              Slow
                {
                  factor = 1.5 +. Rng.float_range rng 6.5;
                  beats = 1 + Rng.int rng 12;
                }
          | 2 -> Drop (1 + Rng.int rng 6)
          | _ -> Raise
        in
        { domain; at_beat; kind })
  in
  { seed; faults }

let has_raise (p : plan) =
  List.exists (fun f -> match f.kind with Raise -> true | _ -> false) p.faults

(* ------------------------------------------------------------------ *)
(* Per-worker injection state: owner-only mutable fields, allocated at
   session start only for workers the plan actually targets. *)

type state = {
  mutable queue : fault list;  (** this domain's faults, by [at_beat] *)
  mutable beat : int;  (** beats observed by this worker so far *)
  mutable drop_left : int;
  mutable slow_left : int;
  mutable slow_pause_s : float;
  heart_s : float;  (** one beat period, for stall/slow pauses *)
}

type decision = {
  fired : fault list;  (** faults newly activated at this beat *)
  pause_s : float;  (** sleep this long at the boundary *)
  drop : bool;  (** swallow the beat: no [Beat] event, no promotion *)
  raise_now : bool;  (** raise {!Injected} into the task body *)
}

(** [state_for plan ~domain ~heart_s] is [Some st] iff the plan holds
    faults for [domain] — untargeted workers keep the exact no-chaos
    hot path. *)
let state_for (p : plan) ~(domain : int) ~(heart_s : float) : state option =
  match List.filter (fun f -> f.domain = domain) p.faults with
  | [] -> None
  | mine ->
      let queue =
        List.stable_sort (fun a b -> compare a.at_beat b.at_beat) mine
      in
      Some
        {
          queue;
          beat = 0;
          drop_left = 0;
          slow_left = 0;
          slow_pause_s = 0.;
          heart_s = Float.max 1e-6 heart_s;
        }

(** [on_beat st] advances the worker's chaos clock by one observed
    beat and says what the runtime must do at this boundary.  Every
    schedule entry activates exactly once (it appears in [fired] the
    beat it triggers); continuation beats of a slow/drop window do
    not re-fire. *)
let on_beat (st : state) : decision =
  let b = st.beat in
  st.beat <- b + 1;
  let due, rest = List.partition (fun f -> f.at_beat <= b) st.queue in
  st.queue <- rest;
  let pause = ref 0. and raise_now = ref false in
  List.iter
    (fun f ->
      match f.kind with
      | Stall n -> pause := !pause +. (float_of_int n *. st.heart_s)
      | Slow { factor; beats } ->
          st.slow_left <- max st.slow_left beats;
          st.slow_pause_s <- Float.max st.slow_pause_s
              ((Float.max 1. factor -. 1.) *. st.heart_s)
      | Drop n -> st.drop_left <- st.drop_left + n
      | Raise -> raise_now := true)
    due;
  if st.slow_left > 0 then begin
    st.slow_left <- st.slow_left - 1;
    pause := !pause +. st.slow_pause_s
  end;
  let drop =
    if (not !raise_now) && st.drop_left > 0 then begin
      st.drop_left <- st.drop_left - 1;
      true
    end
    else false
  in
  { fired = due; pause_s = !pause; drop; raise_now = !raise_now }
