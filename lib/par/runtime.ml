(** A real multi-domain heartbeat runtime on OCaml 5: the paper's §3
    runtime executed on hardware parallelism rather than on the
    abstract machine or the discrete-event simulator.  At
    [domains = 1] it is serial with promotion: promoted tasks
    interleave on the calling domain, and every promotion, suspension
    and join still takes the real code path.

    One {e worker domain} per configured core, each owning a
    thread-safe Chase–Lev deque ({!Ws_deque}).  The paper's Linux
    ping thread (§3.4) exists because a worker must be {e sent} a
    signal to be interrupted; here a worker only {e observes} beats at
    its polls, so each worker reads its own monotonic clock there and
    a beat is due once ♥ µs have passed since its previous one.  User
    code exposes latent parallelism through {!par_for} and {!fork2},
    which run serially by default; at each promotion-ready poll a
    worker whose beat is due {e promotes} the outermost latent
    construct of its running computation into a real task, pushed on
    its own deque.  Idle workers {e steal from the top} of a victim's
    deque — the oldest, outermost task, the work-first/steal-oldest
    discipline of the heartbeat line of work.

    Joins are effect-suspended: a parent whose children were promoted
    performs {!Wait} and parks its continuation in the join record;
    the {e last-finishing} child — on whichever domain it happens to
    run — wins an atomic handshake and re-enqueues the parent, so the
    parent resumes on that child's domain.  The handshake is the only
    cross-domain protocol in the scheduler:

    - [pending : int Atomic.t] counts outstanding promoted children
      {e plus the parent's own stake of 1}.  A child is counted
      (increment) strictly before its task becomes visible (push), and
      the parent's stake is only released inside the suspension
      handler — so while the parent is running, [pending] never
      reaches 0, no child ever believes it is last, and [waiter] is
      untouched.  A join record is reused across promotion
      generations (a loop promotes at several beats); the stake is
      what keeps an early-finishing child of one generation from
      racing the handshake of a later one.
    - [waiter : waiter Atomic.t] moves [No_waiter → Waiting] (parent's
      CAS after releasing its stake) or [No_waiter → Resumed] (the
      unique child that decremented [pending] to 0); whichever
      transition loses the race observes the other, and the parent is
      resumed exactly once.  The parent re-arms [pending := 1],
      [waiter := No_waiter] when its suspension returns, at which
      point no task of the join is live.

    Promotion-ready marks are the paper's mark list (§B.2): one entry
    per live [fork2]/[par_for] frame, polled only at promotion-ready
    program points (loop strips, spawn and join sites), and a beat
    promotes the outermost entry first.  Loop promotions of a child
    share the original join record, like [loop-par-try-promote] in
    the paper's prod program.  The mark list is part of the
    computation (the ref travels with a suspended continuation and is
    re-installed on the resuming worker), and is only ever touched by
    the domain currently running that computation — so it needs no
    synchronisation, but it does mean {e no scheduler state may be
    cached across a call into user code}: any nested
    [par_for]/[fork2] may suspend, migrate the computation to another
    domain, and return there.  Every operation below therefore
    re-reads the worker context from domain-local storage after
    potential suspension points. *)

type join = {
  pending : int Atomic.t;
  waiter : waiter Atomic.t;
  err : exn option Atomic.t;
      (** first exception raised under this join — by an inline branch,
          a promoted child (which records here and still {e finishes},
          so a parked parent always resumes), or a poll observing a
          cancel token.  Re-raised by [join_on] at the fork point after
          every child has drained: errors unwind the task tree
          structurally instead of killing the session. *)
}

and waiter =
  | No_waiter
  | Waiting of {
      k : (unit, unit) Effect.Deep.continuation;
      marks : entry list ref;
          (** the suspended computation's mark list, re-installed on
              the resuming worker *)
      region : int;  (** the suspended computation's trace region *)
    }
  | Resumed

and branch_state = { mutable thunk : (unit -> unit) option; bjr : join }

and loop_state = {
  mutable lo : int;
  mutable hi : int;
  mutable strip : int;
      (** iterations the next strip claims, resized by {!next_strip}
          after each strip; a promoted child starts from it *)
  f : int -> unit;
  ljr : join;
}

(** Promotion-ready marks: one per live promotable construct, owned by
    whichever domain is running the computation. *)
and entry = E_branch of branch_state | E_loop of loop_state

type task = {
  run : unit -> unit;
  marks : entry list ref;
  region : int;
      (** {!Obs.Labels}-interned source-region label inherited from the
          forking computation; 0 when tracing is off *)
}

type worker = {
  id : int;
  deque : task Ws_deque.t;
  mutable rng : int;  (** xorshift state for victim selection *)
  mutable current_marks : entry list ref;
  mutable last_beat_ns : int;
      (** monotonic ({!Mclock}) stamp of the previous beat, armed when
          this worker's loop starts *)
  ring : Obs.Ring.t option;
      (** this worker's trace ring (present iff the session has a
          tracer); owner-written only, like every field below *)
  mutable region : int;
      (** interned label of the source region currently running here —
          stamped on promoted tasks and Task_start/finish events *)
  (* stats: plain fields, owner-domain only; aggregated after join *)
  mutable st_beats : int;
  mutable st_promotions : int;
  mutable st_loop_promotions : int;
  mutable st_branch_promotions : int;
  mutable st_joins : int;
  mutable st_resumes : int;
  mutable st_steals : int;
  mutable st_steal_attempts : int;
  mutable st_tasks : int;
  mutable st_max_deque : int;
  mutable st_idle_ns : int;
  mutable st_faults : int;  (** chaos faults that fired on this worker *)
  mutable st_cancels : int;  (** polls that observed a cancel token *)
  mutable st_polls : int;  (** polls: loop strip ends and fork points *)
  mutable chaos : Chaos.state option;
      (** fault-injection state, [Some] only for workers the session's
          chaos plan actually targets — every other worker (and every
          worker of a chaos-free session) keeps the exact unmodified
          hot path, which is what makes the no-chaos metrics
          bit-identical *)
}

(** Why a request's task tree was torn down: an explicit client abort,
    a blown deadline, or the pool's lease watchdog recovering a wedged
    session. *)
type cancel_reason = [ `Explicit | `Deadline | `Lease ]

type cancel_token = cancel_reason option Atomic.t
(** A write-once cancellation flag shared between the computation and
    whoever may abort it.  Polled at every promotion-ready beat check,
    so cancellation latency is one loop strip — about ♥ / 8 of loop
    time, at most {!max_strip} × the slowest iteration after a
    slowdown — the same bound promotion has. *)

exception Cancelled of cancel_reason
(** Raised (repeatedly, once per poll) inside the computation once its
    token is set; unwinds through fork points like any task error. *)

let reason_name = function
  | `Explicit -> "explicit"
  | `Deadline -> "deadline"
  | `Lease -> "lease"

let () =
  Printexc.register_printer (function
    | Cancelled r -> Some (Printf.sprintf "Par.Runtime.Cancelled(%s)" (reason_name r))
    | _ -> None)

type config = {
  domains : int;  (** worker domains; 1 = serial with promotion *)
  heart_us : float;  (** ♥ in microseconds *)
  source : [ `Polling ];
      (** the beat source, which has one value: each worker reads its
          own monotonic clock at its polls.  The field stays only
          because the benchmark's sources (under [perfbench/]) still
          write it; once they stop, delete it. *)
  tracer : Obs.Trace.t option;
      (** when set, every worker gets a per-domain {!Obs.Ring} track
          in this trace and feeds it the full event stream — export
          with {!Obs.Export}, digest with {!metrics} *)
  chaos : Chaos.plan option;
      (** seeded fault-injection schedule applied at beat boundaries;
          [None] or an empty plan is strictly pay-for-use (bit-identical
          counters to a chaos-free session) *)
}

let default_config =
  {
    domains = 1;
    heart_us = 100.;
    source = `Polling;
    tracer = None;
    chaos = None;
  }

type pool = {
  cfg : config;
  heart_ns : int;  (** [cfg.heart_us] in integer nanoseconds, for the
                       beat check *)
  t0_ns : int;
      (** monotonic session start, for {!live_stats} and [elapsed_s] *)
  workers : worker array;
  stop : bool Atomic.t;  (** main completed, or a task raised *)
  error : exn option Atomic.t;  (** first exception, wins the race *)
  urgency : int Atomic.t;
      (** deadline-aware promotion hint: the effective beat period is
          the configured ♥ shifted right by this many bits, so a
          serving layer can promote more aggressively for work that is
          near its SLO without re-creating the session.  0 = the
          configured cadence; each step halves the period.  Session-
          wide by design: one request runs at a time on a warm pool,
          and beats are pool-global anyway. *)
  cancel : cancel_token option Atomic.t;
      (** the cancel token of the currently running request, installed
          by the serving layer via {!set_cancel} ([None] between
          requests and for plain sessions); polled by every worker at
          its beat check *)
}

type ctx = { pool : pool; worker : worker }

(** A scheduler-invariant violation, carrying the classified machine
    fault (the runtime's states map onto the abstract machine's). *)
exception Machine_fault of Tpal.Machine_error.t

type worker_stats = {
  beats : int;
  promotions : int;
  loop_promotions : int;
  branch_promotions : int;
  joins : int;  (** parents parked on a join record (each resumed once) *)
  resumes : int;  (** parents re-enqueued by their last child *)
  steals : int;
  steal_attempts : int;
  tasks_run : int;
  max_deque : int;
  idle_ns : int;  (** nanoseconds slept in idle backoff (naps only) *)
  faults_injected : int;  (** chaos-schedule faults that fired *)
  cancels : int;  (** polls that observed a cancel token and unwound *)
  polls : int;  (** promotion-ready polls: loop strip ends and fork points *)
}

type stats = {
  domains : int;
  elapsed_s : float;
      (** the whole session, on the monotonic clock {!live_stats} reads *)
  total : worker_stats;  (** sums over workers; [max_deque] is a max *)
  per_worker : worker_stats array;
}

(* ------------------------------------------------------------------ *)

type _ Effect.t += Wait : join -> unit Effect.t

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let cur_ctx () : ctx =
  match Domain.DLS.get ctx_key with
  | Some c -> c
  | None ->
      invalid_arg "Par.Runtime: par_for/fork2 used outside Par.Runtime.run"

(* Urgency shifts are capped so [heart_ns asr max_urgency] is always a
   defined shift on 63-bit ints; 62 drives any period to 0, i.e. a
   beat at every poll. *)
let max_urgency = 62

(** [set_urgency u] installs the session's promotion-urgency hint
    (clamped to [0, 62]): the effective beat period becomes the
    configured ♥ divided by 2^u.  Must be called from inside a {!run}
    session. *)
let set_urgency (u : int) : unit =
  let ctx = cur_ctx () in
  Atomic.set ctx.pool.urgency (max 0 (min max_urgency u))

(** The session's current urgency hint (0 when never set). *)
let urgency () : int = Atomic.get (cur_ctx ()).pool.urgency

(** A fresh, unset cancel token (cache-line-padded: the holder writes
    it from another domain while every worker polls it). *)
let cancel_token () : cancel_token = Obs.Padding.atomic None

(** [cancel tok reason]: request cancellation.  First reason wins;
    callable from any domain or thread — this is how a watchdog or a
    client aborts a computation it does not run. *)
let cancel (tok : cancel_token) (reason : cancel_reason) : unit =
  ignore (Atomic.compare_and_set tok None (Some reason))

let cancel_requested (tok : cancel_token) : bool = Atomic.get tok <> None
let cancel_reason_of (tok : cancel_token) : cancel_reason option = Atomic.get tok

(** [set_cancel tok]: install (or, with [None], clear) the cancel
    token covering the work the session runs next.  Must be called
    from inside {!run} — the serving layer brackets each request with
    it. *)
let set_cancel (tok : cancel_token option) : unit =
  Atomic.set (cur_ctx ()).pool.cancel tok

(* [emit ctx e]: record [e] on the worker's ring.  A worker has a ring
   iff the session has a tracer, so an untraced session pays the one
   [None] branch.  An event with a run-time payload is a fresh block,
   so its call site builds it only when {!traced}: an untraced session
   allocates nothing for its events. *)
let emit (ctx : ctx) (e : Obs.Event.t) : unit =
  match (ctx.worker.ring, ctx.pool.cfg.tracer) with
  | Some ring, Some tr -> Obs.Trace.emit tr ring e
  | _ -> ()

let traced (ctx : ctx) : bool = Option.is_some ctx.worker.ring

(* pending starts at 1: the parent's stake (see the header comment) *)
let fresh_join () =
  {
    pending = Atomic.make 1;
    waiter = Atomic.make No_waiter;
    err = Atomic.make None;
  }

(* First error wins; the cascading [Cancelled] re-raises of an unwind
   and simultaneous failures on other domains are dropped. *)
let record_err (jr : join) (e : exn) : unit =
  ignore (Atomic.compare_and_set jr.err None (Some e))

let push_task (ctx : ctx) (t : task) : unit =
  let w = ctx.worker in
  Ws_deque.push_bottom w.deque t;
  (* owner-side length bound: no reads of the thief-contended [top]
     line on the push hot path *)
  let len = Ws_deque.owner_length w.deque in
  if len > w.st_max_deque then w.st_max_deque <- len

(* A promoted child finished.  While the parent holds its stake,
   [pending] stays ≥ 1 after any child decrement, so the branch below
   is only ever taken by the unique child that ran after the parent
   released the stake and drained the count — per join epoch, exactly
   one task touches [waiter] here. *)
let finish (ctx : ctx) (jr : join) : unit =
  let n = Atomic.fetch_and_add jr.pending (-1) in
  if n = 1 then
    match Atomic.exchange jr.waiter Resumed with
    | Waiting { k; marks; region } ->
        ctx.worker.st_resumes <- ctx.worker.st_resumes + 1;
        emit ctx Obs.Event.Join_resume;
        push_task ctx
          { run = (fun () -> Effect.Deep.continue k ()); marks; region }
    | No_waiter ->
        (* the parent is between releasing its stake and its CAS; its
           CAS will fail against [Resumed] and continue inline *)
        ()
    | Resumed -> () (* unreachable: one exchanger per epoch *)

let push_mark (ctx : ctx) (e : entry) : unit =
  let m = ctx.worker.current_marks in
  m := e :: !m

let describe_entry : entry -> string = function
  | E_branch { thunk = Some _; _ } -> "a branch mark (unpromoted)"
  | E_branch { thunk = None; _ } -> "a branch mark (promoted)"
  | E_loop { lo; hi; _ } -> Printf.sprintf "a loop mark [%d, %d)" lo hi

(* Marks obey strict LIFO nesting per computation; a violation is a
   scheduler bug, surfaced as a typed fault. *)
let pop_mark (ctx : ctx) (e : entry) : unit =
  let m = ctx.worker.current_marks in
  match !m with
  | top :: rest when top == e -> m := rest
  | wrong ->
      let got =
        match wrong with
        | [] -> "an empty mark list"
        | top :: _ -> describe_entry top
      in
      raise
        (Machine_fault
           (Tpal.Machine_error.Mark_corruption
              { context = "pop_mark"; expected = describe_entry e; got }))

(* Time-sized loop strips.  A strip of [par_for_range] runs until its
   poll, so its length sets how long a pending beat, cancel or lease
   waits.  A fixed count of iterations is wrong at both ends: too many
   polls for a one-store body, too few for a heavy one.  So the strip
   is sized by the time the previous one took, on the clock stamp the
   poll reads anyway. *)

(* The most iterations one strip claims.  It bounds how late a beat is
   seen after a loop's iterations suddenly slow down: at most
   [max_strip] × the slowest iteration + ♥. *)
let max_strip = 8192

(* The least strip target while ♥ > 0, in ns: under a serving layer's
   urgency hint the effective ♥ can reach 0, and a clock read per
   iteration would then cost more than a one-store body. *)
let min_strip_target_ns = 1_000

(* [next_strip ~heart_ns ~urgency ~strip ~elapsed_ns]: the length of
   the strip after one of [strip] iterations took [elapsed_ns], for the
   configured ♥ [heart_ns] and the urgency shift [urgency].  The target
   is the effective ♥ / 8, at least [min_strip_target_ns]; the strip
   doubles (up to [max_strip]) while strips take under half of it and
   halves (down to 1) when one takes more.  ♥ = 0 keeps every strip
   at one iteration, so every iteration ends in a due poll.  Pure, for
   the policy tests. *)
let next_strip ~(heart_ns : int) ~(urgency : int) ~(strip : int)
    ~(elapsed_ns : int) : int =
  if heart_ns <= 0 then 1
  else
    let target = max min_strip_target_ns ((heart_ns asr urgency) / 8) in
    if elapsed_ns > target then max 1 (strip / 2)
    else if 2 * elapsed_ns < target then min max_strip (2 * strip)
    else strip

(* [promote]: split the outermost (least-recent) promotable entry of
   the running computation — the paper's outermost-first policy.
   [pending] is raised before the task is pushed, so a join can never
   transiently read 0 while work is still outstanding.  Task bodies
   re-fetch their context at run time: they execute on whichever
   domain pops or steals them. *)
let rec promote (ctx : ctx) : unit =
  let w = ctx.worker in
  let promotable = function
    | E_branch { thunk = Some _; _ } -> true
    | E_branch _ -> false
    | E_loop { lo; hi; _ } -> hi - lo >= 2
  in
  let rec oldest = function
    | [] -> None
    | e :: rest -> (
        match oldest rest with
        | Some _ as found -> found
        | None -> if promotable e then Some e else None)
  in
  match oldest !(w.current_marks) with
  | None -> ()
  | Some (E_branch b) ->
      let thunk = Option.get b.thunk in
      b.thunk <- None;
      Atomic.incr b.bjr.pending;
      w.st_promotions <- w.st_promotions + 1;
      w.st_branch_promotions <- w.st_branch_promotions + 1;
      emit ctx (Obs.Event.Promote { kind = `Branch });
      let jr = b.bjr in
      push_task ctx
        { run =
            (fun () ->
              (* a raising child records into the join and still
                 finishes: the parked parent must resume so the fork
                 point can observe the error *)
              (try thunk () with e -> record_err jr e);
              finish (cur_ctx ()) jr);
          marks = ref [];
          region = w.region }
  | Some (E_loop l) ->
      let mid = l.lo + ((l.hi - l.lo + 1) / 2) in
      let child_lo = mid and child_hi = l.hi in
      l.hi <- mid;
      Atomic.incr l.ljr.pending;
      w.st_promotions <- w.st_promotions + 1;
      w.st_loop_promotions <- w.st_loop_promotions + 1;
      emit ctx (Obs.Event.Promote { kind = `Loop });
      let f = l.f and jr = l.ljr and strip = l.strip in
      push_task ctx
        { run =
            (fun () ->
              (try par_for_range ~strip child_lo child_hi f jr
               with e -> record_err jr e);
              finish (cur_ctx ()) jr);
          marks = ref [];
          region = w.region }

(* [poll]: the promotion-ready program point — observe a pending beat
   and promote.  Fetches the context fresh: the computation may have
   migrated since the previous poll. *)
and poll () : unit = poll_at (cur_ctx ()) (Mclock.now_ns ())

(* [poll_at ctx now]: the same, for call sites that already hold a
   context known to be fresh (no user code ran since it was fetched)
   and a {!Mclock} stamp [now] taken just before. *)
and poll_at (ctx : ctx) (now : int) : unit =
  let w = ctx.worker in
  w.st_polls <- w.st_polls + 1;
  (* cooperative cancellation: one relaxed load on the live path.  The
     raise repeats at every poll of the unwinding computation, so a
     [try ... poll ()] downstream cannot accidentally swallow the
     abort for good. *)
  (match Atomic.get ctx.pool.cancel with
  | None -> ()
  | Some tok -> (
      match Atomic.get tok with
      | None -> ()
      | Some reason ->
          w.st_cancels <- w.st_cancels + 1;
          if traced ctx then emit ctx (Obs.Event.Cancel { reason });
          raise (Cancelled reason)));
  (* [now] is monotonic: an NTP step of the wall clock must not make
     beats fire continuously (forward) or never (backward) *)
  let heart_ns = ctx.pool.heart_ns asr Atomic.get ctx.pool.urgency in
  if now - w.last_beat_ns >= heart_ns then begin
    w.last_beat_ns <- now;
    match w.chaos with
    | None ->
        w.st_beats <- w.st_beats + 1;
        emit ctx Obs.Event.Beat;
        promote ctx
    | Some cs ->
        let d = Chaos.on_beat cs in
        List.iter
          (fun (f : Chaos.fault) ->
            w.st_faults <- w.st_faults + 1;
            if traced ctx then emit ctx (Chaos.event f.kind))
          d.fired;
        if d.pause_s > 0. then Unix.sleepf d.pause_s;
        if d.raise_now then
          (* the typed injected fault: unwinds through the join
             machinery exactly like a user exception *)
          raise (Chaos.Injected { domain = w.id; beat = cs.beat })
        else if not d.drop then begin
          w.st_beats <- w.st_beats + 1;
          emit ctx Obs.Event.Beat;
          promote ctx
        end
  end

(* The promotable loop runner: iterations of [lo, hi) with the range
   advertised on the mark list, strip-mined so the beat check
   amortises over a strip of [l.strip] iterations, resized after each
   strip by {!next_strip} from its measured time.  One clock read per
   strip serves both the sizing and the beat check.  Each
   strip is {e claimed} ([l.lo <- stop]) before it runs: a beat
   landing inside [f] — at a nested promotion point, possibly after
   the computation suspended and migrated to another domain — splits
   only the unclaimed [stop, hi), so the tight loop below owns
   [lo0, stop) exclusively and needs no per-iteration bookkeeping to
   keep the advertised range live.  [l.hi] can only shrink to values
   > [stop] while the strip runs (a promotion splits at
   [mid > l.lo = stop]), so a claimed iteration is never handed out
   twice, and committing happens before the strip-boundary poll by
   construction.  Promoted children re-enter this runner with the
   shared join record and the parent's strip length, so their
   remaining iterations promote recursively. *)
and par_for_range ~(strip : int) (lo : int) (hi : int) (f : int -> unit)
    (jr : join) : unit =
  if lo < hi then begin
    let ctx = cur_ctx () in
    let l = { lo; hi; strip; f; ljr = jr } in
    let e = E_loop l in
    push_mark ctx e;
    let t0 = ref (Mclock.now_ns ()) in
    match
      while l.lo < l.hi do
        let lo0 = l.lo and strip = l.strip in
        let stop = if l.hi - lo0 <= strip then l.hi else lo0 + strip in
        l.lo <- stop;
        for i = lo0 to stop - 1 do
          f i
        done;
        let now = Mclock.now_ns () in
        (* the strip body may have suspended and migrated the
           computation, so the context is re-fetched *)
        let ctx = cur_ctx () in
        let pool = ctx.pool in
        l.strip <-
          next_strip ~heart_ns:pool.heart_ns
            ~urgency:(Atomic.get pool.urgency) ~strip
            ~elapsed_ns:(now - !t0);
        t0 := now;
        poll_at ctx now
      done
    with
    | () -> pop_mark (cur_ctx ()) e
    | exception exn ->
        (* unwinding (user error, injected fault, cancellation): the
           mark must come off on the worker currently running the
           computation — nested frames already popped theirs — before
           the error continues to the fork point *)
        pop_mark (cur_ctx ()) e;
        raise exn
  end

(* Join point.  [pending = 1] means only our stake is left: every
   child (if any) has already finished, and — stake never released —
   none of them touched [waiter]; nothing to do.  Otherwise suspend:
   the handler releases the stake and the handshake decides who
   resumes us.  When the suspension returns, no task of this join is
   live any more (the resumer was the last, and increments only come
   from tasks of the join), so re-arming for the next promotion
   generation is race-free. *)
and join_on (jr : join) : unit =
  (if Atomic.get jr.pending > 1 then begin
     Effect.perform (Wait jr);
     Atomic.set jr.pending 1;
     Atomic.set jr.waiter No_waiter
   end);
  (* every child has drained; if any party recorded an error, the fork
     point re-raises it here — structural propagation, never a stray
     task *)
  match Atomic.get jr.err with None -> () | Some e -> raise e

(** [par_for ~lo ~hi f]: a parallel-for with latent parallelism only —
    runs serially unless heartbeats promote remaining iterations onto
    other domains. *)
let par_for ~(lo : int) ~(hi : int) (f : int -> unit) : unit =
  let jr = fresh_join () in
  (* an inline error is recorded, not re-raised here: promoted children
     may still be running, and the join below must wait for all of them
     before the error continues upward *)
  (try par_for_range ~strip:1 lo hi f jr with e -> record_err jr e);
  (try poll () with e -> record_err jr e);
  join_on jr

(** [fork2 a b]: run [a] then [b] serially by default, advertising [b]
    for promotion while [a] runs (the cilk_spawn/cilk_sync pair). *)
let fork2 (a : unit -> unit) (b : unit -> unit) : unit =
  let jr = fresh_join () in
  let bs = { thunk = Some b; bjr = jr } in
  let e = E_branch bs in
  push_mark (cur_ctx ()) e;
  (match a () with
  | () -> pop_mark (cur_ctx ()) e
  | exception exn ->
      record_err jr exn;
      pop_mark (cur_ctx ()) e);
  (try poll () with exn -> record_err jr exn);
  (match bs.thunk with
  | Some b ->
      (* never promoted: run serially — unless [a] (or the poll) already
         failed, in which case serial semantics never reached [b] *)
      bs.thunk <- None;
      (match Atomic.get jr.err with
      | None -> ( try b () with exn -> record_err jr exn)
      | Some _ -> ())
  | None -> ());
  join_on jr

(** [with_region name f]: label the work done by [f] (and any tasks it
    forks) as source region [name] in the session's trace — the unit
    the what-if profiler ({!Obs.Profile.of_trace}) attributes work and
    span to.  Free when the session has no tracer.  The label is
    restored when [f] returns, on whichever worker the computation
    migrated to. *)
let with_region (name : string) (f : unit -> 'a) : 'a =
  let ctx = cur_ctx () in
  match ctx.pool.cfg.tracer with
  | None -> f ()
  | Some tr ->
      let id = Obs.Trace.intern tr name in
      let prev = ctx.worker.region in
      ctx.worker.region <- id;
      Fun.protect f ~finally:(fun () ->
          (* the computation may have migrated: restore on the worker
             currently running it *)
          (cur_ctx ()).worker.region <- prev)

(** The executor surface {!Workloads.Exec.S}-shaped kernels run
    against — pass [(module Par.Runtime.Exec)] inside a {!run}
    session. *)
module Exec = struct
  let par_for = par_for
  let fork2 = fork2
end

(* ------------------------------------------------------------------ *)
(* The scheduler loop.                                                 *)

(* xorshift for victim selection: cheap, worker-local *)
let rand (w : worker) : int =
  let x = w.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  w.rng <- (if x = 0 then 0x9E3779B1 else x);
  w.rng

(* Every task body runs under this deep handler; a suspended
   continuation carries it along, so resuming the continuation — on
   whichever domain [finish] runs — re-enters the scheduler's
   discipline automatically.  The handler resolves its worker context
   dynamically (the effect is always performed on the domain currently
   running the computation, which need not be the domain that captured
   the continuation).  Parking a waiter simply returns from the task's
   [match_with], handing control back to the worker loop. *)
let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait jr ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let ctx = cur_ctx () in
                let marks = ctx.worker.current_marks in
                let region = ctx.worker.region in
                (* release the parent's stake; from here a child can
                   drain [pending] to 0 and touch [waiter] *)
                let n = Atomic.fetch_and_add jr.pending (-1) in
                if n = 1 then
                  (* children drained between join_on's check and the
                     release: nothing to wait for *)
                  Effect.Deep.continue k ()
                else if
                  Atomic.compare_and_set jr.waiter No_waiter
                    (Waiting { k; marks; region })
                then begin
                  (* parked; the last child re-enqueues us.  Counted
                     here rather than before the effect, so a parent
                     that continues inline (either other branch) is no
                     join: every counted join has exactly one resume.
                     The computation may already run on the resuming
                     domain; [ctx] is still this worker's own. *)
                  ctx.worker.st_joins <- ctx.worker.st_joins + 1;
                  emit ctx Obs.Event.Join_suspend
                end
                else
                  (* the last child exchanged [Resumed] between our
                     release and our CAS *)
                  Effect.Deep.continue k ())
        | _ -> None);
  }

let run_task (ctx : ctx) (t : task) : unit =
  let w = ctx.worker in
  w.current_marks <- t.marks;
  w.region <- t.region;
  w.st_tasks <- w.st_tasks + 1;
  if traced ctx then emit ctx (Obs.Event.Task_start { region = w.region });
  (try Effect.Deep.match_with t.run () handler
   with e ->
     (* first failure wins; stop the pool, the session re-raises *)
     if Atomic.compare_and_set ctx.pool.error None (Some e) then ();
     Atomic.set ctx.pool.stop true);
  if traced ctx then emit ctx (Obs.Event.Task_finish { region = w.region })

(* [steal_victim ~r ~self ~n k]: the k-th victim of one randomized
   sweep — start at a random offset among the other [n - 1] workers
   and walk them cyclically.  [r] is any non-negative rng draw,
   including values near [max_int]: it is reduced mod [n - 1] BEFORE
   the sweep offset is added, so the sum can never overflow into a
   negative [mod] (the pre-fix [1 + ((r + k) mod (n - 1))] wrapped
   negative for large [r], yielding self-steals and negative victim
   indices).  Exposed for the overflow regression test. *)
let steal_victim ~(r : int) ~(self : int) ~(n : int) (k : int) : int =
  let d = 1 + (((r mod (n - 1)) + k) mod (n - 1)) in
  (self + d) mod n

(* One randomized sweep over the other workers' deque tops.
   [log_fails] controls whether empty probes are traced as failed
   [Steal] events — the worker loop sets it only on the first sweep of
   a drought, so backoff spinning does not flood the rings with
   megahertz noise; the [Nap] events cover the rest of the drought
   (the counters are always exact regardless). *)
let try_steal ?(log_fails = false) (ctx : ctx) : task option =
  let w = ctx.worker in
  let workers = ctx.pool.workers in
  let n = Array.length workers in
  let r = rand w in
  let found = ref None in
  let k = ref 0 in
  while Option.is_none !found && !k < n - 1 do
    let victim = steal_victim ~r ~self:w.id ~n !k in
    w.st_steal_attempts <- w.st_steal_attempts + 1;
    (match Ws_deque.steal_top workers.(victim).deque with
    | Some t ->
        w.st_steals <- w.st_steals + 1;
        if traced ctx then emit ctx (Obs.Event.Steal { ok = true; victim });
        found := Some t
    | None ->
        if log_fails && traced ctx then
          emit ctx (Obs.Event.Steal { ok = false; victim }));
    incr k
  done;
  !found

(* Idle backoff: a worker whose sweeps come up empty first spins
   ([cpu_relax], cheap and latency-optimal while work is likely), then
   sleeps with exponentially escalating naps capped at [max_nap_s] —
   so idle thieves stop hammering victims' deque lines (the mechanism
   behind the 2–4-domain anti-scaling in the single-core
   BENCH_par.json) while still noticing freshly pushed work within a
   bounded delay of one capped nap (as slept, see [nap_s]).  Any
   claimed task resets the ladder. *)
let spin_limit = 32

let max_nap_s = 200e-6
let nap_base_s = 1e-6

(* The nap for the [failures]-th consecutive empty sweep: zero (pure
   spin) through [spin_limit], then [nap_base_s] doubling per failure,
   capped at [max_nap_s] — so the worst-case delay between work
   appearing and a fully backed-off thief's next sweep is one capped
   nap, not an unbounded exponential.  That is the nap as slept, not
   as requested: Linux's default 50 µs timer slack stretches a
   200 µs [Unix.sleepf] to about 270 µs (DESIGN.md §9).  Pure, for
   the policy tests. *)
let nap_s ~(failures : int) : float =
  let past_spin = failures - spin_limit in
  if past_spin <= 0 then 0.
  else Float.min max_nap_s (nap_base_s *. float_of_int (1 lsl min past_spin 20))

(* A worker only exits with its own deque empty, and only the owner
   pushes to a deque — so no task is ever stranded in an exited
   worker's deque. *)
let worker_loop (ctx : ctx) : unit =
  let pool = ctx.pool in
  let n = Array.length pool.workers in
  let failures = ref 0 in
  let idle () =
    incr failures;
    let nap = nap_s ~failures:!failures in
    if nap <= 0. then Domain.cpu_relax ()
    else begin
      (* book the time actually slept: timer slack stretches a short
         nap well past its request (a 1 µs one sleeps tens of µs) *)
      let t0 = Mclock.now_ns () in
      Unix.sleepf nap;
      let ns = Mclock.now_ns () - t0 in
      ctx.worker.st_idle_ns <- ctx.worker.st_idle_ns + ns;
      if traced ctx then emit ctx (Obs.Event.Nap { ns })
    end
  in
  let running = ref true in
  while !running do
    match Ws_deque.pop_bottom ctx.worker.deque with
    | Some t ->
        failures := 0;
        run_task ctx t
    | None -> (
        if Atomic.get pool.stop then running := false
        else if n = 1 then idle ()
        else
          match try_steal ~log_fails:(!failures = 0) ctx with
          | Some t ->
              failures := 0;
              run_task ctx t
          | None -> idle ())
  done

let run_worker (pool : pool) (id : int) : unit =
  let w = pool.workers.(id) in
  let ctx = { pool; worker = w } in
  (* arm the beat when THIS worker's loop starts, on its own monotonic
     clock — not at pool construction on the spawning
     domain, which front-loads a spurious first beat by however long
     the domain spawns took *)
  w.last_beat_ns <- Mclock.now_ns ();
  Domain.DLS.set ctx_key (Some ctx);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set ctx_key None)
    (fun () -> worker_loop ctx)

(* ------------------------------------------------------------------ *)

(* The worker record itself is padded: its stat fields are written by
   the owner on hot paths, and [Array.init] would otherwise allocate
   adjacent workers' records onto shared cache lines. *)
let make_worker ?(tracer : Obs.Trace.t option) ?(chaos : Chaos.state option)
    ~(id : int) () : worker =
  Obs.Padding.copy_as_padded
  {
    id;
    deque = Ws_deque.create ();
    rng = 0x9E3779B1 + (id * 0x85EBCA77);
    current_marks = ref [];
    last_beat_ns = Mclock.now_ns ();
    ring =
      Option.map
        (fun tr -> Obs.Trace.track tr (Printf.sprintf "worker %d" id))
        tracer;
    region = 0;
    st_beats = 0;
    st_promotions = 0;
    st_loop_promotions = 0;
    st_branch_promotions = 0;
    st_joins = 0;
    st_resumes = 0;
    st_steals = 0;
    st_steal_attempts = 0;
    st_tasks = 0;
    st_max_deque = 0;
    st_idle_ns = 0;
    st_faults = 0;
    st_cancels = 0;
    st_polls = 0;
    chaos;
  }

let worker_stats (w : worker) : worker_stats =
  {
    beats = w.st_beats;
    promotions = w.st_promotions;
    loop_promotions = w.st_loop_promotions;
    branch_promotions = w.st_branch_promotions;
    joins = w.st_joins;
    resumes = w.st_resumes;
    steals = w.st_steals;
    steal_attempts = w.st_steal_attempts;
    tasks_run = w.st_tasks;
    max_deque = w.st_max_deque;
    idle_ns = w.st_idle_ns;
    faults_injected = w.st_faults;
    cancels = w.st_cancels;
    polls = w.st_polls;
  }

let zero_stats =
  {
    beats = 0;
    promotions = 0;
    loop_promotions = 0;
    branch_promotions = 0;
    joins = 0;
    resumes = 0;
    steals = 0;
    steal_attempts = 0;
    tasks_run = 0;
    max_deque = 0;
    idle_ns = 0;
    faults_injected = 0;
    cancels = 0;
    polls = 0;
  }

let sum_stats (per : worker_stats array) : worker_stats =
  Array.fold_left
    (fun acc (s : worker_stats) ->
      {
        beats = acc.beats + s.beats;
        promotions = acc.promotions + s.promotions;
        loop_promotions = acc.loop_promotions + s.loop_promotions;
        branch_promotions = acc.branch_promotions + s.branch_promotions;
        joins = acc.joins + s.joins;
        resumes = acc.resumes + s.resumes;
        steals = acc.steals + s.steals;
        steal_attempts = acc.steal_attempts + s.steal_attempts;
        tasks_run = acc.tasks_run + s.tasks_run;
        max_deque = max acc.max_deque s.max_deque;
        idle_ns = acc.idle_ns + s.idle_ns;
        faults_injected = acc.faults_injected + s.faults_injected;
        cancels = acc.cancels + s.cancels;
        polls = acc.polls + s.polls;
      })
    zero_stats per

(** [live_stats ()]: a racy-but-safe snapshot of the running session's
    per-worker counters, from inside {!run} (any worker domain, or
    user code).  Counters are plain owner-written ints, so a reader on
    another domain sees a slightly stale but untorn value — exact
    accounting comes from the stats {!run} returns after joining its
    domains. *)
let live_stats () : stats =
  let ctx = cur_ctx () in
  let pool = ctx.pool in
  let per_worker = Array.map worker_stats pool.workers in
  {
    domains = Array.length pool.workers;
    elapsed_s = float_of_int (Mclock.now_ns () - pool.t0_ns) *. 1e-9;
    total = sum_stats per_worker;
    per_worker;
  }

(** [metrics ?tracer st]: fold a session's stats (and its trace rings,
    when it had a tracer) into the unified {!Obs.Metrics} snapshot. *)
let metrics ?(tracer : Obs.Trace.t option) (st : stats) : Obs.Metrics.t =
  {
    Obs.Metrics.domains = st.domains;
    elapsed_s = st.elapsed_s;
    beats = st.total.beats;
    promotions = st.total.promotions;
    loop_promotions = st.total.loop_promotions;
    branch_promotions = st.total.branch_promotions;
    joins = st.total.joins;
    resumes = st.total.resumes;
    steals = st.total.steals;
    steal_attempts = st.total.steal_attempts;
    tasks = st.total.tasks_run;
    max_deque = st.total.max_deque;
    idle_ns = st.total.idle_ns;
    faults_injected = st.total.faults_injected;
    cancels = st.total.cancels;
    polls = st.total.polls;
    retries = 0;
    restarts = 0;
    stalls = 0;
    traced = (match tracer with None -> 0 | Some tr -> Obs.Trace.total_written tr);
    dropped =
      (match tracer with None -> 0 | Some tr -> Obs.Trace.total_dropped tr);
  }

(* Sessions cannot nest (a domain already inside a session must not
   boot another — its DLS ctx would be clobbered and the outer pool
   would lose a worker), but independent sessions MAY coexist in one
   process: every piece of scheduler state is pool-scoped and reached
   through the domain-local ctx, so N disjoint domain sets can each
   run their own heartbeat — the sharded serving layer ({!Net.Shard})
   runs one warm session per shard. *)

(** [run ?config main] executes [main] under the multi-domain
    heartbeat scheduler: [config.domains] worker domains, the calling
    domain being worker 0.  Returns [main]'s result and the session
    statistics.
    An exception inside a task — user code, an injected {!Chaos}
    fault, or a {!Cancelled} unwind — propagates structurally to its
    fork point (children are always joined first, so no task strays);
    only an exception escaping [main] itself aborts the session and
    re-raises here. *)
let run ?(config = default_config) (main : unit -> 'a) : 'a * stats =
  if Domain.DLS.get ctx_key <> None then
    invalid_arg "Par.Runtime.run: already running";
  let n = max 1 config.domains in
  (* chaos state is materialized per targeted worker only; an
     absent or empty plan leaves every worker's [chaos = None] —
     the exact chaos-free hot path and counters *)
  let chaos_for id =
    match config.chaos with
    | None -> None
    | Some p ->
        Chaos.state_for p ~domain:id
          ~heart_s:(Float.max 0. config.heart_us *. 1e-6)
  in
  let pool =
    {
      cfg = config;
      heart_ns = int_of_float (Float.max 0. config.heart_us *. 1e3);
      t0_ns = Mclock.now_ns ();
      workers =
        Array.init n (fun id ->
            make_worker ?tracer:config.tracer ?chaos:(chaos_for id) ~id ());
      stop = Atomic.make false;
      error = Atomic.make None;
      urgency = Obs.Padding.atomic 0;
      cancel = Obs.Padding.atomic None;
    }
  in
  let result = ref None in
  (* main is an ordinary task on worker 0's deque; its completion
     implies every fork has joined, so no task can outlive it *)
  Ws_deque.push_bottom pool.workers.(0).deque
    {
      run =
        (fun () ->
          result := Some (main ());
          Atomic.set pool.stop true);
      marks = ref [];
      region =
        (match config.tracer with
        | Some tr -> Obs.Trace.intern tr "main"
        | None -> 0);
    };
  let others =
    try
      Array.init (n - 1) (fun i ->
          Domain.spawn (fun () -> run_worker pool (i + 1)))
    with e ->
      (* spawn failed: stop whatever did start, then re-raise *)
      Atomic.set pool.stop true;
      raise e
  in
  run_worker pool 0;
  Array.iter Domain.join others;
  (* the monotonic clock of [live_stats] and the idle counters, so
     an idle fraction divides like by like *)
  let elapsed_s = float_of_int (Mclock.now_ns () - pool.t0_ns) *. 1e-9 in
  (match Atomic.get pool.error with Some e -> raise e | None -> ());
  let per_worker = Array.map worker_stats pool.workers in
  let st =
    { domains = n; elapsed_s; total = sum_stats per_worker; per_worker }
  in
  match !result with
  | Some r -> (r, st)
  | None ->
      invalid_arg
        "Par.Runtime.run: computation did not complete (deadlock?)"
