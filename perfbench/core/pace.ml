(** Open-loop pacing: a seeded Poisson arrival schedule, and a waiter
    that sleeps until just before each due time and spins only for the
    final stretch.

    Spinning for the whole gap (as [Serve.Load.run] does) keeps a core
    busy for the entire run; on a 2-core host that is half the machine
    taken from the pool under test.  Sleeping alone overshoots by the
    kernel's timer slack.  Sleeping to [due - spin_s] and spinning the
    rest gives both: the core is free for most of each gap, and the
    send happens on time unless the sleep overshot by more than
    [spin_s]. *)

(** [arrivals ~seed ~rate_rps ~n]: the due times of [n] requests, in
    seconds from the start of the run, with exponential inter-arrival
    gaps of mean [1 / rate_rps]. *)
let arrivals ~(seed : int) ~(rate_rps : float) ~(n : int) : float array =
  if not (rate_rps > 0.) then invalid_arg "Pace.arrivals: rate must be > 0";
  let rng = Sim.Prng.create ~seed in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Sim.Prng.exponential rng ~mean:(1. /. rate_rps);
      !t)

(** The rate a schedule actually offers: arrivals per second over the
    span from 0 to the last due time. *)
let offered_rps (due : float array) : float =
  let n = Array.length due in
  if n = 0 then 0. else float_of_int n /. due.(n - 1)

(** [wait_until ~spin_s due] returns once the clock reaches [due], and
    returns the clock reading at that moment.  [now] and [sleep] are
    parameters so the pacing rule can be tested on a virtual clock. *)
let wait_until ?(now = Mclock.now_s) ?(sleep = Unix.sleepf)
    ~(spin_s : float) (due : float) : float =
  let rec go () =
    let t = now () in
    if t >= due then t
    else if due -. t > spin_s then begin
      sleep (due -. t -. spin_s);
      go ()
    end
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()
