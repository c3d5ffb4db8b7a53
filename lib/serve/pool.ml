(** Heartbeat-as-a-service: a multi-tenant execution pool that owns
    {e one warm} {!Par.Runtime} session and serves many requests
    through it — the ROADMAP's serving layer.

    The session's main task is a dispatch loop: it blocks on a
    condition variable until the {!Sched} core hands it a request
    (bounded admission → deficit-round-robin across tenants → EDF
    within a tenant → panic override for imminent deadlines), installs
    the request's deadline-derived {!Par.Runtime.set_urgency} hint so
    near-SLO work promotes its latent parallelism more eagerly, and
    executes the request body with the session's own
    [par_for]/[fork2] executor.  Worker domains are spawned once at
    {!create} and stay warm across requests — session reuse is the
    whole point: the committed BENCH_par.json history shows session
    setup dwarfing small kernels.

    Requests execute {e one at a time} per pool; each request is
    internally parallel across every domain of the pool (space-sharing
    {e within} a pool would dilute the heartbeat's outermost-first
    discipline — space-sharing across requests is instead provided by
    {!Net.Shard}, which runs several pools over disjoint domain sets
    behind a router).  Concurrency lives at the boundary: any number
    of client threads submit and await concurrently.

    Failure containment is a lease watchdog: a watchdog thread leases
    each in-flight request [lease_s] seconds.  A request that overruns
    marks the pool {e degraded} ([stalls_detected] increments, new
    submissions are shed with a typed rejection while the wedged
    request holds the session) and has its cancel token set, so a
    request that polls unwinds at its next poll with
    [Cancelled `Lease]; the flag clears when the request finally
    returns.  Closing the pool resolves every still-queued request
    with the typed {!error.Pool_closed} — never by racing domain
    shutdown against a half-executed queue.

    GC policy: the domains a pool owns run with a minor heap of
    {!minor_heap_words} words, set by the pool's own domain before its
    session starts and adopted by the session's workers; the domain
    that calls {!create} keeps its own setting.  OCaml 5.1 asks for a
    stop-the-world major slice once a domain's direct major-heap
    allocations since its last slice exceed about a quarter of its
    minor-heap size (a measured rule, DESIGN §10), so at the 256k-word
    default every request that allocates a 2 MB array (a
    [Serve.Load.kernel 262144]) forces one on its own, and every domain
    in the process must join it; at 2M words every second such request
    still does.  The size is a constant, not a config field: it trades
    a bounded, measured amount of memory (DESIGN §10) for fewer pauses
    that every domain in the process pays, so no one pool's caller is
    placed to tune it. *)

type work =
  | Kernel of { bench : Workloads.Real_bench.t; scale : int }
      (** a registry kernel; outcome is its checksum *)
  | Tpal of { prog : Tpal.Ast.program; options : Tpal.Eval.options }
      (** a TPAL program through the {!Fuzz.Tpal_drive} interpreter,
          forking on this pool's scheduler *)
  | Thunk of ((module Workloads.Exec.S) -> int)
      (** any checksum-returning computation against the session's
          executor (the synthetic-load and test entry point) *)

type outcome =
  | Checksum of int
  | Tpal_result of (Tpal.Task.t, Tpal.Machine_error.t) result
      (** [Error] = the machine got stuck; a program-level fault, not
          a pool failure *)

type reject = [ `Queue_full | `Shedding ]

type error =
  | Rejected of reject
      (** admission backpressure ([`Queue_full]) or degraded-mode load
          shedding ([`Shedding]) at submit time *)
  | Pool_closed
      (** the pool was closed while this request was still queued (or
          the submit raced [close]) *)
  | Timed_out  (** [await ~timeout_s] expired; the request itself may
                   still complete later *)
  | Cancelled of Par.Runtime.cancel_reason
      (** the request's task tree was cooperatively unwound: by
          {!cancel}, with its caller's reason, or by the lease watchdog
          recovering the session ([`Lease]) *)
  | Failed of exn  (** the request body (or the session) raised *)
  | Delivered
      (** the ticket resolved and its result was already delivered —
          returned by an earlier {!await} or {!try_result}, or, in
          {!Net.Shard}, handed to its [on_resolve] hook.  A result is
          delivered once. *)

let pp_error ppf : error -> unit = function
  | Rejected `Queue_full -> Fmt.pf ppf "rejected: queue full"
  | Rejected `Shedding -> Fmt.pf ppf "rejected: shedding (pool degraded)"
  | Pool_closed -> Fmt.pf ppf "pool closed"
  | Timed_out -> Fmt.pf ppf "await timed out"
  | Cancelled r -> Fmt.pf ppf "cancelled (%s)" (Par.Runtime.reason_name r)
  | Failed e -> Fmt.pf ppf "failed: %s" (Printexc.to_string e)
  | Delivered -> Fmt.pf ppf "already delivered"

type completion = {
  outcome : outcome;
  sojourn_s : float;  (** admission → completion, on the pool's clock *)
  met_deadline : bool;
}

type ticket = int

type config = {
  runtime : Par.Runtime.config;  (** the warm session: domain count, ♥ *)
  sched : Sched.config;  (** admission cap, DRR quantum, panic slack *)
  default_slo_s : float;  (** deadline for submits that give none *)
  lease_s : float;
      (** wedged-request lease; ≤ 0 disables the watchdog.  A request
          past it sheds new work until it returns, and has its cancel
          token set: one that polls unwinds at its next poll, one that
          never polls stays wedged — OCaml domains cannot be preempted
          from outside. *)
  tracer : Obs.Trace.t option;
      (** when set, the pool records every admission / DRR–EDF
          dispatch / completion / degradation decision on a "server"
          track of this trace.  Pass the same tracer in
          [runtime.tracer] to interleave the worker domains' beats,
          steals and task spans in the same document. *)
}

let default_config =
  {
    runtime = Par.Runtime.default_config;
    sched = Sched.default_config;
    default_slo_s = 1.0;
    lease_s = 10.;
    tracer = None;
  }

type t = {
  cfg : config;
  m : Mutex.t;
  cv : Condition.t;
      (** one condition for all transitions (submission, completion,
          close, boot): every wake is a [broadcast] — a [signal] could
          wake an awaiter when the dispatch loop is the thread that
          must run *)
  sched : work Sched.t;
  results : (completion, error) result Answered.t;
      (** which tickets resolved, and each result until the first
          {!await} or {!try_result} that returns it *)
  cbs : (ticket, (completion, error) result -> unit) Hashtbl.t;
      (** per-submit resolution hooks ([submit ~on_resolve]); fired
          exactly once, after the result lands in [results] *)
  mutable pending_cbs : (unit -> unit) list;
      (** resolution hooks staged under [m] (newest first) and invoked
          by {!run_cbs} after the mutex drops — callbacks never run
          under the pool lock, so a hook may submit, await or close
          without deadlocking *)
  mutable next_id : int;
  mutable submitted : int;  (** all submit attempts on an open pool *)
  mutable shed : int;
  mutable failures : int;
  mutable cancelled : int;  (** tickets resolved [Pool_closed] *)
  mutable cancels : int;  (** tickets resolved [Cancelled _] *)
  mutable restarts : int;  (** warm session restarts performed *)
  mutable running : (ticket * float) option;  (** in-flight id, start *)
  mutable cancel_tok : Par.Runtime.cancel_token option;
      (** the in-flight request's token — the handle the watchdog and
          {!cancel} use to unwind it from outside the session *)
  mutable flagged : ticket option;  (** in-flight request past its lease *)
  mutable stalls : int;
  mutable degraded : bool;
  mutable close_requested : bool;
  mutable shutdown_done : bool;
  mutable up : bool;  (** the session's dispatch loop has started *)
  mutable attempt_up : bool;
      (** the {e current} session attempt's dispatch loop has started —
          gates warm restart so a boot failure never restarts into a
          spin *)
  mutable failed : exn option;  (** the session itself died *)
  mutable rt_stats : Par.Runtime.stats option;  (** set at teardown *)
  mutable domain : unit Domain.t option;
  mutable watchdog : Thread.t option;
  watchdog_stop : bool Atomic.t;
  ring : Obs.Ring.t option;
      (** the "server" trace track; written under [m] only, so the
          single-writer ring discipline holds *)
  lat_all : Obs.Hist.t;  (** sojourn histogram, all completions *)
  lat_tenant : (string, Obs.Hist.t) Hashtbl.t;  (** per-tenant sojourns *)
}

type stats = {
  submitted : int;
  shed : int;
  served : int;
  met : int;
  missed : int;
  failures : int;
  cancelled : int;
  cancels : int;  (** cooperative cancellations delivered *)
  restarts : int;  (** warm session restarts *)
  queued : int;
  stalls_detected : int;
  degraded : bool;
  sched : Sched.stats;
  runtime : Par.Runtime.stats option;  (** available after [close] *)
  latency : Obs.Hist.summary;  (** sojourn p50/p95/p99 over completions *)
  latency_per_tenant : (string * Obs.Hist.summary) list;  (** by tenant name *)
}

let stats_locked (t : t) : stats =
  let sc = Sched.stats t.sched in
  {
    submitted = t.submitted;
    shed = t.shed;
    served = sc.served;
    met = sc.met;
    missed = sc.missed;
    failures = t.failures;
    cancelled = t.cancelled;
    cancels = t.cancels;
    restarts = t.restarts;
    queued = sc.queued;
    stalls_detected = t.stalls;
    degraded = t.degraded;
    sched = sc;
    runtime = t.rt_stats;
    latency = Obs.Hist.summary t.lat_all;
    latency_per_tenant =
      Hashtbl.fold
        (fun tenant h acc -> (tenant, Obs.Hist.summary h) :: acc)
        t.lat_tenant []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let stats (t : t) : stats =
  Mutex.lock t.m;
  let s = stats_locked t in
  Mutex.unlock t.m;
  s

(** [metrics ?tracer st]: the pool's {!Obs.Metrics} snapshot — the
    session's {!Par.Runtime.metrics} (zero counters before {!close})
    with the pool's own restart and lease-stall counts folded in. *)
let metrics ?(tracer : Obs.Trace.t option) (st : stats) : Obs.Metrics.t =
  let rt =
    match st.runtime with
    | None ->
        { Obs.Metrics.domains = 0; elapsed_s = 0.; total = Obs.Metrics.zero;
          restarts = 0; stalls = 0; traced = 0; dropped = 0 }
    | Some rt -> Par.Runtime.metrics ?tracer rt
  in
  { rt with Obs.Metrics.restarts = st.restarts; stalls = st.stalls_detected }

(* ------------------------------------------------------------------ *)
(* Observability: the pool's trace track and latency accounting.
   Every helper below is called under [t.m], which is what makes the
   single-writer ring emission and the histogram updates safe. *)

let pemit (t : t) (e : Obs.Event.t) : unit =
  match (t.ring, t.cfg.tracer) with
  | Some ring, Some tr -> Obs.Trace.emit tr ring e
  | _ -> ()

let tenant_id (t : t) (name : string) : int =
  match t.cfg.tracer with Some tr -> Obs.Trace.intern tr name | None -> 0

(* Latency histograms are always on (a bucket increment per request,
   not gated on tracing): they power [stats.latency]. *)
let record_latency (t : t) ~(tenant : string) (sojourn_s : float) : unit =
  Obs.Hist.add_s t.lat_all sojourn_s;
  let h =
    match Hashtbl.find_opt t.lat_tenant tenant with
    | Some h -> h
    | None ->
        let h = Obs.Hist.create () in
        Hashtbl.add t.lat_tenant tenant h;
        h
  in
  Obs.Hist.add_s h sojourn_s

(* Every ticket resolution in the pool funnels through here: the
   result lands in [results] (under [m]) and the ticket's [on_resolve]
   hook, if any, is staged for {!run_cbs}.  Exactly-once by
   construction — the hook is removed as it is staged. *)
let resolve_locked (t : t) (id : ticket) (res : (completion, error) result) :
    unit =
  ignore (Answered.resolve t.results id (Some res) : bool);
  match Hashtbl.find_opt t.cbs id with
  | Some cb ->
      Hashtbl.remove t.cbs id;
      t.pending_cbs <- (fun () -> cb res) :: t.pending_cbs
  | None -> ()

(* Invoke staged resolution hooks.  Call with [m] NOT held; every
   code path that may have staged a hook calls this right after its
   unlock.  A hook that raises is contained (counted as a failure of
   the hook, not of the pool). *)
let run_cbs (t : t) : unit =
  Mutex.lock t.m;
  let cbs = t.pending_cbs in
  t.pending_cbs <- [];
  Mutex.unlock t.m;
  List.iter (fun f -> try f () with _ -> ()) (List.rev cbs)

(* ------------------------------------------------------------------ *)
(* Request execution, inside the warm session. *)

let exec (w : work) : outcome =
  match w with
  | Kernel { bench; scale } ->
      Checksum (bench.run (module Par.Runtime.Exec) ~scale)
  | Thunk f -> Checksum (f (module Par.Runtime.Exec))
  | Tpal { prog; options } ->
      Tpal_result
        (match Fuzz.Tpal_drive.interpret ~options prog with
        | task -> Ok task
        | exception Fuzz.Tpal_drive.Stuck e -> Error e)

(* The session's main task.  Every Sched call happens under the mutex;
   the request body runs outside it (it is the long part, and awaiting
   clients must make progress on [results] meanwhile). *)
let serve_main (t : t) : unit =
  Mutex.lock t.m;
  t.up <- true;
  t.attempt_up <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  let rec loop () =
    Mutex.lock t.m;
    let rec next () =
      if t.close_requested then None
      else
        match Sched.next t.sched ~now:(Mclock.now_s ()) with
        | Some r -> Some r
        | None ->
            Condition.wait t.cv t.m;
            next ()
    in
    match next () with
    | None ->
        (* close path: the typed Pool_closed teardown.  Everything
           still queued resolves here, under the mutex, BEFORE the
           session's main task returns — so domain shutdown never
           races a half-drained queue. *)
        let dropped = Sched.drain t.sched in
        let now = Mclock.now_s () in
        List.iter
          (fun (r : work Sched.req) ->
            resolve_locked t r.id (Error Pool_closed);
            t.cancelled <- t.cancelled + 1;
            pemit t
              (Obs.Event.Complete
                 {
                   tenant = tenant_id t r.tenant;
                   outcome = `Cancelled;
                   sojourn_ns = int_of_float ((now -. r.enqueued) *. 1e9);
                 }))
          dropped;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        run_cbs t
    | Some r ->
        (* a fresh token per request: the watchdog and [cancel] unwind
           this request and no other *)
        let tok = Par.Runtime.cancel_token () in
        t.cancel_tok <- Some tok;
        t.running <- Some (r.id, Mclock.now_s ());
        (* the deadline-aware promotion hint: near-SLO requests get a
           shorter effective beat period for their whole execution *)
        let hint = Sched.promotion_hint ~now:(Mclock.now_s ()) r in
        pemit t
          (Obs.Event.Dispatch { tenant = tenant_id t r.tenant; urgency = hint });
        Mutex.unlock t.m;
        Par.Runtime.set_cancel (Some tok);
        Par.Runtime.set_urgency hint;
        let res = try Ok (exec r.payload) with e -> Error e in
        Par.Runtime.set_urgency 0;
        Par.Runtime.set_cancel None;
        let fin = Mclock.now_s () in
        Mutex.lock t.m;
        t.running <- None;
        t.cancel_tok <- None;
        if t.flagged = Some r.id then begin
          (* the wedged request finally finished (or was lease-
             cancelled): degradation clears, the stall stays on the
             books *)
          t.flagged <- None;
          t.degraded <- false;
          pemit t (Obs.Event.Degraded { on = false })
        end;
        let sojourn_s = fin -. r.enqueued in
        let complete outcome =
          pemit t
            (Obs.Event.Complete
               {
                 tenant = tenant_id t r.tenant;
                 outcome;
                 sojourn_ns = int_of_float (sojourn_s *. 1e9);
               })
        in
        (* [fatal] = the session's scheduler state can no longer be
           trusted and the pool must warm-restart *)
        let fatal = ref None in
        let resolved : (completion, error) result =
          match res with
          | Ok outcome ->
              let verdict = Sched.complete t.sched ~now:fin r in
              record_latency t ~tenant:r.tenant sojourn_s;
              complete (if verdict = `Met then `Met else `Missed);
              Ok { outcome; sojourn_s; met_deadline = (verdict = `Met) }
          | Error (Par.Runtime.Cancelled reason) ->
              t.cancels <- t.cancels + 1;
              complete `Cancelled;
              Error (Cancelled reason)
          | Error (Par.Runtime.Machine_fault _ as e) ->
              (* a scheduler-invariant violation: resolve the victim,
                 then tear the session down for a warm restart — its
                 mark lists and deques are untrusted *)
              t.failures <- t.failures + 1;
              complete `Failed;
              fatal := Some e;
              Error (Failed e)
          | Error e ->
              t.failures <- t.failures + 1;
              complete `Failed;
              Error (Failed e)
        in
        resolve_locked t r.id resolved;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        run_cbs t;
        (match !fatal with Some e -> raise e | None -> loop ())
  in
  loop ()

let watchdog_loop (t : t) : unit =
  (* short ticks so close never waits long for the join, regardless of
     the lease length *)
  let tick = Float.min 0.05 (Float.max 0.001 (t.cfg.lease_s /. 4.)) in
  while not (Atomic.get t.watchdog_stop) do
    Thread.delay tick;
    Mutex.lock t.m;
    let now = Mclock.now_s () in
    (match t.running with
    | Some (id, started)
      when t.flagged <> Some id && now -. started > t.cfg.lease_s ->
        t.stalls <- t.stalls + 1;
        t.flagged <- Some id;
        t.degraded <- true;
        pemit t (Obs.Event.Degraded { on = true });
        (* lease-based recovery: beyond marking the pool degraded, ask
           the wedged request to unwind.  A cooperative (polling)
           request aborts at its next poll and the session serves on;
           one that never polls stays wedged — flagged, shedding —
           until it returns *)
        (match t.cancel_tok with
        | Some tok when not (Par.Runtime.cancel_requested tok) ->
            Par.Runtime.cancel tok `Lease;
            pemit t (Obs.Event.Cancel { reason = `Lease })
        | _ -> ())
    | _ -> ());
    Mutex.unlock t.m
  done

(* ------------------------------------------------------------------ *)

(** Minor-heap size, in words, of every domain a pool owns: 2M words
    (16 MB) per domain.  Chosen by census and alternating pairs on the
    net-closed benchmark: 1M gave no gain, and 3M's larger gain cost
    +26% peak RSS (DESIGN §10). *)
let minor_heap_words = 2 * 1024 * 1024

(** [create ?config ()] spawns the warm session (one domain running
    the dispatch loop; the session itself spawns [domains − 1] worker
    domains) and the lease watchdog, and waits until the dispatch loop
    is live.  Raises whatever the session boot raised (e.g. the
    no-nested-sessions guard of {!Par.Runtime.run}).  Several pools
    may coexist in one process, each owning its own domain set. *)
let create ?(config = default_config) () : t =
  let t =
    {
      cfg = config;
      m = Mutex.create ();
      cv = Condition.create ();
      sched = Sched.create ~config:config.sched ();
      results = Answered.create ();
      cbs = Hashtbl.create 64;
      pending_cbs = [];
      next_id = 0;
      submitted = 0;
      shed = 0;
      failures = 0;
      cancelled = 0;
      cancels = 0;
      restarts = 0;
      running = None;
      cancel_tok = None;
      flagged = None;
      stalls = 0;
      degraded = false;
      close_requested = false;
      shutdown_done = false;
      up = false;
      attempt_up = false;
      failed = None;
      rt_stats = None;
      domain = None;
      watchdog = None;
      watchdog_stop = Atomic.make false;
      ring = Option.map (fun tr -> Obs.Trace.track tr "server") config.tracer;
      lat_all = Obs.Hist.create ();
      lat_tenant = Hashtbl.create 16;
    }
  in
  let d =
    Domain.spawn (fun () ->
        Par.Runtime.set_minor_heap minor_heap_words;
        (* the session loop: one warm Par.Runtime session normally; on
           a session-fatal error (a Machine_fault, or anything escaping
           the dispatch loop itself) the wreck is resolved and — once
           per pool, provided the dying attempt had actually booted — a
           fresh session takes over the untouched queue *)
        let rec session () =
          Mutex.lock t.m;
          t.attempt_up <- false;
          Mutex.unlock t.m;
          match
            Par.Runtime.run ~config:t.cfg.runtime (fun () -> serve_main t)
          with
          | (), st ->
              Mutex.lock t.m;
              t.rt_stats <- Some st;
              Condition.broadcast t.cv;
              Mutex.unlock t.m
          | exception e ->
              Mutex.lock t.m;
              let can_restart =
                t.attempt_up && (not t.close_requested)
                && t.restarts = 0
              in
              if can_restart then begin
                (* warm restart: the in-flight request (if any — its
                   delivery is uncertain) resolves Failed; queued work
                   survives untouched and the fresh dispatch loop
                   serves it *)
                t.restarts <- t.restarts + 1;
                (match t.running with
                | Some (id, _) ->
                    t.running <- None;
                    t.cancel_tok <- None;
                    t.failures <- t.failures + 1;
                    resolve_locked t id (Error (Failed e))
                | None -> ());
                if t.flagged <> None then begin
                  t.flagged <- None;
                  t.degraded <- false;
                  pemit t (Obs.Event.Degraded { on = false })
                end;
                pemit t (Obs.Event.Restart { attempt = t.restarts });
                Condition.broadcast t.cv;
                Mutex.unlock t.m;
                run_cbs t;
                session ()
              end
              else begin
                (* boot failure, the pool's one restart already used,
                   or a close racing the death: resolve everything so
                   no awaiter hangs, and surface the exception *)
                t.failed <- Some e;
                t.up <- true;
                (match t.running with
                | Some (id, _) ->
                    t.running <- None;
                    t.cancel_tok <- None;
                    t.failures <- t.failures + 1;
                    resolve_locked t id (Error (Failed e))
                | None -> ());
                List.iter
                  (fun (r : work Sched.req) ->
                    resolve_locked t r.id (Error (Failed e)))
                  (Sched.drain t.sched);
                Condition.broadcast t.cv;
                Mutex.unlock t.m;
                run_cbs t
              end
        in
        session ())
  in
  t.domain <- Some d;
  Mutex.lock t.m;
  while (not t.up) && t.failed = None do
    Condition.wait t.cv t.m
  done;
  let boot_failure = t.failed in
  Mutex.unlock t.m;
  (match boot_failure with
  | Some e ->
      Domain.join d;
      raise e
  | None -> ());
  if config.lease_s > 0. then
    t.watchdog <- Some (Thread.create watchdog_loop t);
  t

(** [submit t ~tenant ?deadline_s ?size ?on_resolve w] queues [w] and
    returns its ticket, or a typed rejection: [Rejected `Queue_full]
    at the admission cap, [Rejected `Shedding] while degraded,
    [Pool_closed] after (or racing) [close].  [deadline_s] is relative
    to now (default [default_slo_s]); [size] is the DRR service-size
    estimate (default 1).  [on_resolve] is invoked exactly once, from
    a pool-internal thread with no pool lock held, when the ticket
    resolves (it may call back into the pool) — the push-style
    completion hook the network front-end ({!Net}) rides instead of
    parking an [await] thread per in-flight request.  It fires only
    for admitted submissions (an immediate [Error] return means no
    ticket exists to resolve).  With or without a hook, the result is
    also kept for one read ({!await}, {!try_result}); a caller that
    never reads a ticket keeps its result alive, so {!Net.Shard} reads
    each of its hook tickets once from the hook. *)
let submit (t : t) ~(tenant : string) ?deadline_s ?(size = 1)
    ?(on_resolve : ((completion, error) result -> unit) option) (w : work) :
    (ticket, error) result =
  Mutex.lock t.m;
  let r =
    if t.close_requested then Error Pool_closed
    else begin
      t.submitted <- t.submitted + 1;
      match t.failed with
      | Some e -> Error (Failed e)
      | None ->
          if t.degraded then begin
            t.shed <- t.shed + 1;
            pemit t (Obs.Event.Reject { shed = true });
            Error (Rejected `Shedding)
          end
          else begin
            let now = Mclock.now_s () in
            let id = t.next_id in
            let req =
              {
                Sched.id;
                tenant;
                deadline =
                  now +. Option.value deadline_s ~default:t.cfg.default_slo_s;
                size;
                enqueued = now;
                payload = w;
              }
            in
            match Sched.admit t.sched req with
            | Error `Queue_full ->
                pemit t (Obs.Event.Reject { shed = false });
                Error (Rejected `Queue_full)
            | Ok () ->
                t.next_id <- id + 1;
                (match on_resolve with
                | Some cb -> Hashtbl.replace t.cbs id cb
                | None -> ());
                pemit t (Obs.Event.Admit { tenant = tenant_id t tenant });
                Condition.broadcast t.cv;
                Ok id
          end
    end
  in
  Mutex.unlock t.m;
  r

(* A read of [ticket], under [m]: [Some] result the first time (the
   pool forgets it), [Some (Error Delivered)] after that, [None] while
   it is pending.  A ticket this pool never issued releases [m] and
   raises [Invalid_argument]. *)
let read_locked ~(fn : string) (t : t) (ticket : ticket) :
    (completion, error) result option =
  if ticket < 0 || ticket >= t.next_id then begin
    Mutex.unlock t.m;
    invalid_arg (Printf.sprintf "Serve.Pool.%s: ticket %d never issued" fn ticket)
  end;
  match Answered.take t.results ticket with
  | `Value r -> Some r
  | `Delivered -> Some (Error Delivered)
  | `Pending -> None

(** [await ?timeout_s t ticket] blocks until the ticket resolves and
    returns its result, which the pool then forgets: a later [await]
    or {!try_result} of the same ticket returns [Error Delivered] at
    once.  With a timeout it polls (stdlib [Condition] has no timed
    wait); [Timed_out] leaves the request in place — it may still
    resolve, and the next read returns it.  Raises [Invalid_argument]
    for a ticket this pool never issued. *)
let await ?timeout_s (t : t) (ticket : ticket) : (completion, error) result =
  let deadline = Option.map (fun s -> Mclock.now_s () +. s) timeout_s in
  Mutex.lock t.m;
  let rec wait () =
    match read_locked ~fn:"await" t ticket with
    | Some r ->
        Mutex.unlock t.m;
        r
    | None -> (
        match t.failed with
        | Some e ->
            Mutex.unlock t.m;
            Error (Failed e)
        | None -> (
            match deadline with
            | None ->
                Condition.wait t.cv t.m;
                wait ()
            | Some d ->
                if Mclock.now_s () > d then begin
                  Mutex.unlock t.m;
                  Error Timed_out
                end
                else begin
                  Mutex.unlock t.m;
                  Thread.delay 0.001;
                  Mutex.lock t.m;
                  wait ()
                end))
  in
  wait ()

(** [depth t]: queued + in-flight request count — the cheap backlog
    probe a join-shortest-queue router polls per placement decision. *)
let depth (t : t) : int =
  Mutex.lock t.m;
  let d =
    Sched.length t.sched + (match t.running with Some _ -> 1 | None -> 0)
  in
  Mutex.unlock t.m;
  d

(** [try_result t ticket] is {!await} without the wait: [None] while
    the ticket is pending, else what {!await} would return — the
    result at the first read, [Error Delivered] after it. *)
let try_result (t : t) (ticket : ticket) : (completion, error) result option =
  Mutex.lock t.m;
  let r = read_locked ~fn:"try_result" t ticket in
  Mutex.unlock t.m;
  r

(** The in-flight request's ticket, if any (test probe). *)
let running (t : t) : ticket option =
  Mutex.lock t.m;
  let r = Option.map fst t.running in
  Mutex.unlock t.m;
  r

(** [cancel t ticket] aborts a request.  Still queued: it is removed
    and its ticket resolves [Error (Cancelled reason)] immediately.  In
    flight: the request's cancel token is set and the task tree
    unwinds cooperatively at its next beat — completion can still win
    that race, in which case the awaiter sees the completed result.
    Returns [false] when the ticket is unknown or already resolved,
    read or not. *)
let cancel ?(reason : Par.Runtime.cancel_reason = `Explicit) (t : t)
    (ticket : ticket) : bool =
  Mutex.lock t.m;
  let hit =
    if Answered.mem t.results ticket then false
    else
      match t.running with
      | Some (id, _) when id = ticket -> (
          match t.cancel_tok with
          | Some tok ->
              Par.Runtime.cancel tok reason;
              pemit t (Obs.Event.Cancel { reason });
              true
          | None -> false)
      | _ -> (
          match Sched.cancel t.sched ~id:ticket with
          | Some r ->
              t.cancels <- t.cancels + 1;
              resolve_locked t r.id (Error (Cancelled reason));
              pemit t (Obs.Event.Cancel { reason });
              pemit t
                (Obs.Event.Complete
                   {
                     tenant = tenant_id t r.tenant;
                     outcome = `Cancelled;
                     sojourn_ns =
                       int_of_float ((Mclock.now_s () -. r.enqueued) *. 1e9);
                   });
              Condition.broadcast t.cv;
              true
          | None -> false)
  in
  Mutex.unlock t.m;
  run_cbs t;
  hit

(** [close t] stops admission, lets the in-flight request (if any)
    finish, resolves every still-queued ticket with [Pool_closed],
    tears the session down, and returns the final statistics
    (including the runtime's, when the session exited cleanly).
    Idempotent; concurrent callers wait for the first to finish. *)
let close (t : t) : stats =
  Mutex.lock t.m;
  let first = not t.close_requested in
  if first then begin
    t.close_requested <- true;
    Condition.broadcast t.cv
  end;
  Mutex.unlock t.m;
  if first then begin
    Atomic.set t.watchdog_stop true;
    Option.iter Thread.join t.watchdog;
    Option.iter Domain.join t.domain;
    Mutex.lock t.m;
    t.shutdown_done <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  end
  else begin
    Mutex.lock t.m;
    while not t.shutdown_done do
      Condition.wait t.cv t.m
    done;
    Mutex.unlock t.m
  end;
  stats t
