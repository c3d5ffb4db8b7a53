(** Heartbeat interrupt delivery mechanisms (§3.4, §5).

    Each mechanism turns the nominal beat schedule (every ♥ µs on every
    worker) into a stream of {e deliveries} — (time, core, handler
    cost) triples — reproducing the characteristic behaviour the paper
    measures:

    - {!constructor:Ping_thread} (Linux): a dedicated thread sends
      per-worker signals {e sequentially}.  Each send occupies the ping
      thread for [signal_send] cycles, so one sweep over P workers
      takes [P · signal_send]; when that exceeds ♥ the next sweep
      starts late and the achieved rate saturates well below target
      (Figure 10, 20 µs: 83–281 K beats/s of a 750 K target).
      Deliveries also suffer random jitter and, on memory-intensive
      workloads, outright losses — signals arriving while the target
      sits in uninterruptible kernel paths get coalesced; the paper
      notes Linux "largely misses its target heartbeat rate" even at
      100 µs.
    - {!constructor:Papi} (Linux): per-core performance-counter
      interrupts; no sweep serialisation, but a much costlier handler
      path ("always incurs much higher overheads", §4.4).
    - {!constructor:Nautilus_ipi}: a local-APIC timer on core 0
      broadcasts Nemo IPIs; delivery within a few thousand cycles,
      negligible jitter, no losses — Nautilus "practically always
      achieves the heartbeat rate" (§5.2).
    - {!constructor:Off}: no heartbeats (the sequential-baseline and
      Figure 8 configurations). *)

type mech = Off | Ping_thread | Papi | Nautilus_ipi

let mech_name = function
  | Off -> "off"
  | Ping_thread -> "INT-PingThread"
  | Papi -> "INT-Papi"
  | Nautilus_ipi -> "Nautilus-IPI"

type delivery = { at : int; core : int; handler_cost : int }

(** Crash-fault events against individual cores — the hard failure
    modes the benign beat faults below cannot express.  Each event
    names a victim core and the virtual cycle at which it strikes;
    the engine applies it at the core's next promotion-ready point
    (segment boundary), mirroring how beats take effect under
    rollforward.

    - [Crash]: the core halts permanently.  Its deque is drained into
      the survivors by the supervisor sweep and its in-flight task is
      re-executed from its last lease checkpoint.
    - [Stall n]: the core freezes for [n] cycles, then revives and
      {e continues} its in-flight task — racing any re-execution the
      supervisor started in the meantime (the idempotent-join case).
    - [Slow f]: from the fault time on, the core retires cycles [f]×
      slower (wall-clock dilation of its run segments). *)
type core_fault_kind = Crash | Stall of int | Slow of float

type core_fault = { victim : int; at : int; kind : core_fault_kind }

(** Fault-injection knobs for torture testing (differential fuzzing):
    beats may be dropped, duplicated, or arbitrarily delayed beyond the
    mechanism's native jitter, steal probes may spuriously fail
    ([steal_fail] is consumed by the engine, not here), and whole cores
    may crash, stall or slow down ([schedule], also consumed by the
    engine).  Heartbeat promotion is a pure performance mechanism, so
    under any fault schedule results must stay semantically identical —
    only timing and metrics may drift.  All fault draws come from a
    dedicated split stream so enabling faults never perturbs the
    mechanism's native loss/jitter sequences. *)
type faults = {
  drop : float;  (** extra probability a beat is dropped, any mechanism *)
  dup : float;  (** probability a delivered beat is delivered twice *)
  fault_jitter : int;  (** extra uniform delay in cycles added per beat *)
  steal_fail : float;  (** probability a steal probe spuriously misses *)
  schedule : core_fault list;
      (** crash/stall/slow events; [[]] = no core faults, and the
          engine's whole recovery layer stays off (pay-for-use) *)
}

let no_faults =
  { drop = 0.; dup = 0.; fault_jitter = 0; steal_fail = 0.; schedule = [] }

(** [random_schedule ~seed ~procs ~horizon] draws a crash/stall/slow
    schedule for a [procs]-core run expected to span about [horizon]
    cycles.  At least one core always survives every drawn schedule
    (crashes hit at most [procs − 1] distinct victims), so recovery can
    always make progress.  Draws come from a dedicated split stream
    derived from [seed] alone — generating a schedule never perturbs
    any other randomized choice. *)
let random_schedule ~(seed : int) ~(procs : int) ~(horizon : int) :
    core_fault list =
  if procs <= 1 then []
  else begin
    let rng = Prng.split (Prng.create ~seed:(seed lxor 0xC4A5)) in
    let horizon = max 1 horizon in
    let n_events = 1 + Prng.int rng (max 1 (procs / 2)) in
    let crashed = Array.make procs false in
    let crashes = ref 0 in
    let rec draw (k : int) (acc : core_fault list) : core_fault list =
      if k = 0 then List.rev acc
      else begin
        let victim = Prng.int rng procs in
        let at = Prng.int rng horizon in
        let kind =
          match Prng.int rng 3 with
          | 0 when !crashes < procs - 1 && not crashed.(victim) ->
              crashed.(victim) <- true;
              incr crashes;
              Crash
          | 1 -> Stall (1 + Prng.int rng horizon)
          | _ -> Slow (1.5 +. Prng.float_range rng 6.5)
        in
        draw (k - 1) ({ victim; at; kind } :: acc)
      end
    in
    draw n_events []
  end

type t = {
  params : Params.t;
  mech : mech;
  heart : int;  (** ♥ in cycles *)
  loss_prob : float;
      (** probability a Linux signal is lost/coalesced; derived from
          the workload's memory intensity *)
  rng : Prng.t;
  (* ping-thread sweep state *)
  mutable sweep_start : int;  (** when the current sweep began *)
  mutable sweep_pos : int;  (** next worker in the current sweep *)
  (* per-core nominal schedules (Papi, Nautilus) *)
  mutable per_core_next : int array;
  (* fault injection *)
  faults : faults;
  fault_rng : Prng.t;
  mutable pending_dup : delivery option;
  (* accounting *)
  mutable delivered : int;
  mutable lost : int;
  mutable dropped : int;  (** beats removed by fault injection *)
  mutable duplicated : int;  (** extra beats added by fault injection *)
  trace : Sim_trace.t option;  (** loss events are recorded here *)
}

(** [create ?trace ?faults params mech ~mem_intensity] instantiates a
    delivery stream.  [mem_intensity ∈ [0,1]] models how often the
    workload sits in memory-stall / kernel paths that defer Linux
    signal delivery; it has no effect on Nautilus IPIs.  [faults]
    layers injected drops / duplicates / delays on top of the
    mechanism's native behaviour (default: none).  [trace] records each
    lost beat (the delivered ones are recorded by the engine, at their
    effective delivery point). *)
let create ?(trace : Sim_trace.t option) ?(faults = no_faults)
    (params : Params.t) (mech : mech) ~(mem_intensity : float) : t =
  let heart = Params.heart_cycles params in
  {
    params;
    mech;
    heart;
    loss_prob = 0.08 +. (0.45 *. mem_intensity);
    rng = Prng.create ~seed:(params.seed lxor 0x1E77);
    sweep_start = heart;
    sweep_pos = 0;
    per_core_next = Array.make (max 1 params.procs) heart;
    faults;
    fault_rng = Prng.split (Prng.create ~seed:(params.seed lxor 0xFA17));
    pending_dup = None;
    delivered = 0;
    lost = 0;
    dropped = 0;
    duplicated = 0;
    trace;
  }

let trace_loss (t : t) ~(at : int) ~(core : int) : unit =
  match t.trace with
  | None -> ()
  | Some tr -> Sim_trace.emit tr ~at ~core Sim_trace.Beat_lost

let jitter (t : t) : int =
  if t.params.signal_jitter = 0 then 0
  else Prng.int t.rng t.params.signal_jitter

(* One candidate delivery from the ping-thread sweep model; loses the
   signal with probability [loss_prob] but still consumes the send
   slot (the ping thread paid for it either way). *)
let rec next_ping (t : t) : delivery option =
  let p = t.params in
  if p.procs = 0 then None
  else begin
    if t.sweep_pos >= p.procs then begin
      (* sweep finished: the next one starts at the later of its
         nominal time and now (the ping thread may be running late) *)
      let sweep_end = t.sweep_start + (p.procs * p.signal_send) in
      let nominal = t.sweep_start + t.heart in
      t.sweep_start <- max nominal sweep_end;
      t.sweep_pos <- 0
    end;
    let core = t.sweep_pos in
    let send_done = t.sweep_start + ((core + 1) * p.signal_send) in
    t.sweep_pos <- t.sweep_pos + 1;
    if Prng.float t.rng < t.loss_prob then begin
      t.lost <- t.lost + 1;
      trace_loss t ~at:send_done ~core;
      next_ping t
    end
    else begin
      t.delivered <- t.delivered + 1;
      Some { at = send_done + jitter t; core; handler_cost = p.signal_handle }
    end
  end

(* Per-core independent schedules: emit the globally earliest pending
   delivery and advance that core's clock by ♥. *)
let rec next_percore (t : t) ~(handler_cost : int) ~(latency : int)
    ~(jittered : bool) ~(lossy : bool) : delivery option =
  let p = t.params in
  if p.procs = 0 then None
  else begin
    let core = ref 0 in
    for c = 1 to p.procs - 1 do
      if t.per_core_next.(c) < t.per_core_next.(!core) then core := c
    done;
    let nominal = t.per_core_next.(!core) in
    t.per_core_next.(!core) <- nominal + t.heart;
    if lossy && Prng.float t.rng < t.loss_prob then begin
      t.lost <- t.lost + 1;
      trace_loss t ~at:nominal ~core:!core;
      next_percore t ~handler_cost ~latency ~jittered ~lossy
    end
    else begin
      t.delivered <- t.delivered + 1;
      let j = if jittered then jitter t else 0 in
      Some { at = nominal + latency + j; core = !core; handler_cost }
    end
  end

let next_native (t : t) : delivery option =
  match t.mech with
  | Off -> None
  | Ping_thread -> next_ping t
  | Papi ->
      next_percore t ~handler_cost:t.params.papi_handle ~latency:0
        ~jittered:true ~lossy:true
  | Nautilus_ipi ->
      next_percore t ~handler_cost:t.params.ipi_handle
        ~latency:t.params.ipi_latency ~jittered:false ~lossy:false

(** [next t] is the next delivery in time order, advancing the
    mechanism's internal state; [None] when the mechanism is off.
    Injected faults are applied here, on top of the native stream:
    dropped beats are re-counted from [delivered] into [lost],
    duplicates are queued one fault-jitter quantum later (so delivery
    order is preserved), and extra delay is drawn per beat from the
    dedicated fault stream. *)
let rec next (t : t) : delivery option =
  match t.pending_dup with
  | Some d ->
      t.pending_dup <- None;
      Some d
  | None -> (
      match next_native t with
      | None -> None
      | Some d ->
          let f = t.faults in
          if f.drop > 0. && Prng.float t.fault_rng < f.drop then begin
            (* the native layer already counted this beat as delivered *)
            t.delivered <- t.delivered - 1;
            t.lost <- t.lost + 1;
            t.dropped <- t.dropped + 1;
            trace_loss t ~at:d.at ~core:d.core;
            next t
          end
          else begin
            let d =
              if f.fault_jitter > 0 then
                { d with at = d.at + Prng.int t.fault_rng f.fault_jitter }
              else d
            in
            if f.dup > 0. && Prng.float t.fault_rng < f.dup then begin
              t.delivered <- t.delivered + 1;
              t.duplicated <- t.duplicated + 1;
              t.pending_dup <-
                Some { d with at = d.at + max 1 f.fault_jitter }
            end;
            Some d
          end)

(** Beats actually delivered so far. *)
let delivered (t : t) : int = t.delivered

(** Beats lost so far (Linux signal coalescing plus injected drops). *)
let lost (t : t) : int = t.lost

(** Beats removed by fault injection (subset of [lost]). *)
let dropped (t : t) : int = t.dropped

(** Extra beats added by fault injection (subset of [delivered]). *)
let duplicated (t : t) : int = t.duplicated

(** Fleet-wide target beat count for a run of [horizon] cycles — the
    denominator of Figure 10's achieved-rate ratios.  Uses the same
    worker count the engine simulates ([max 1 procs]). *)
let target_count (t : t) ~(horizon : int) : int =
  if t.mech = Off || t.heart = 0 then 0
  else max 1 t.params.procs * (horizon / t.heart)
