(** Multi-pool sharding: N {!Serve.Pool}s, each owning its own warm
    {!Par.Runtime} session over a disjoint domain set, behind a
    {!Router} placement policy.  One pool runs one request at a time
    (the heartbeat's outermost-first discipline is per-session); the
    shard layer restores concurrency {e between} requests by
    partitioning the hardware, so a small request routed to the small
    shard never waits behind a large request grinding on another
    shard's domains.

    The shard only routes: a request is submitted to its routed
    shard's pool, and its ticket {e is} that pool ticket, tagged with
    the shard index, so reads, [cancel], [close] and [stats] go to the
    pools and the shard keeps no per-ticket state.  Resolution is
    push-based end to end — a submit may carry an [on_resolve] hook —
    so the socket front-end ({!Server}) needs no await-thread per
    in-flight request.  No lock spans the fabric: the counters are
    atomics, and each shard's one mutex is {!submit}'s hook handoff
    (lock order [handoff -> pool.m]; no lock of the shard's is held
    while a caller's hook runs). *)

type config = {
  shards : int;  (** pool count; 1 = the single-pool FIFO baseline *)
  pool : Serve.Pool.config;  (** per-shard pool template (domain count
                                 here is {e per shard}) *)
  policy : Router.policy;
  batch_max : int;
      (** ignored; kept until the benchmark stops naming it (ROADMAP
          item 1) *)
  batch_delay_us : float;
      (** ignored; kept until the benchmark stops naming it (ROADMAP
          item 1) *)
  batch_size_max : int;
      (** ignored; kept until the benchmark stops naming it (ROADMAP
          item 1) *)
  on_route : (shard:int -> size:int -> unit) option;
      (** observability hook, fired per placement decision on the
          submitting thread with no lock held — submits may run
          concurrently, so it must be cheap and thread-safe, and must
          not call back in *)
}

let default_config =
  {
    shards = 2;
    pool = Serve.Pool.default_config;
    policy = Router.Size_aware { small_max = 4 };
    batch_max = 1;
    batch_delay_us = 200.;
    batch_size_max = 4;
    on_route = None;
  }

(** A shard ticket: the routed pool's ticket [pt], tagged with its
    [shard] index.  [hooked] marks a ticket submitted with
    [on_resolve], which is delivered through its hook only. *)
type ticket = { shard : int; pt : Serve.Pool.ticket; hooked : bool }

type shard_stats = {
  routed : int;  (** placement decisions that picked this shard *)
  depth : int;  (** instantaneous pool backlog *)
  batch : Batch.stats;
      (** ignored, always zero; kept until the benchmark stops naming
          it (ROADMAP item 1) *)
  pool : Serve.Pool.stats;
}

type stats = {
  policy : string;
  submitted : int;
  batched_members : int;
      (** ignored, always 0; kept until the benchmark stops naming it
          (ROADMAP item 1) *)
  per_shard : shard_stats array;
}

type t = {
  cfg : config;
  pools : Serve.Pool.t array;
  handoff : Mutex.t array;  (** per shard, for {!submit}'s hook tickets *)
  no_depths : int array;  (** the router's input when it reads none *)
  submitted : int Atomic.t;
  routed : int Atomic.t array;
  closing : bool Atomic.t;
}

(** [create ?config ()] boots [config.shards] pools — each its own
    warm session with [config.pool.runtime.domains] worker domains. *)
let create ?(config = default_config) () : t =
  if config.shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  {
    cfg = config;
    pools =
      Array.init config.shards (fun _ -> Serve.Pool.create ~config:config.pool ());
    handoff = Array.init config.shards (fun _ -> Mutex.create ());
    no_depths = Array.make config.shards 0;
    submitted = Atomic.make 0;
    routed = Array.init config.shards (fun _ -> Atomic.make 0);
    closing = Atomic.make false;
  }

let shard_count (t : t) : int = t.cfg.shards

(** Instantaneous per-shard backlog (the router's own input; exposed
    for tests and metrics). *)
let depths (t : t) : int array = Array.map Serve.Pool.depth t.pools

(** [submit t ~tenant ?deadline_s ?size ?on_resolve w]: route — probing
    the pools' depths only when the policy reads them
    ({!Router.reads_depths}) — then submit to the routed shard's pool.
    [on_resolve] fires exactly once, with no shard lock held, when the
    ticket resolves.  An [Error] return issues no ticket, and
    [on_resolve] never fires for it. *)
let submit (t : t) ~(tenant : string) ?deadline_s ?(size = 1) ?on_resolve
    (w : Serve.Pool.work) : (ticket, Serve.Pool.error) result =
  if Atomic.get t.closing then Error Serve.Pool.Pool_closed
  else begin
    Atomic.incr t.submitted;
    let depths =
      if Router.reads_depths t.cfg.policy ~shards:t.cfg.shards ~size then
        depths t
      else t.no_depths
    in
    let shard = Router.route t.cfg.policy ~depths ~tenant ~size in
    Atomic.incr t.routed.(shard);
    (match t.cfg.on_route with Some f -> f ~shard ~size | None -> ());
    let pool = t.pools.(shard) in
    match on_resolve with
    | None ->
        Serve.Pool.submit pool ~tenant ?deadline_s ~size w
        |> Result.map (fun pt -> { shard; pt; hooked = false })
    | Some cb ->
        (* The pool keeps a hook ticket's result for one read, which the
           hook takes so the pool forgets it.  The hook can run before
           [Serve.Pool.submit] returns [pt]: [handoff] is held until
           [pt] is set, and the hook takes it before reading [pt]. *)
        let handoff = t.handoff.(shard) and pt = ref (-1) in
        let hook res =
          (try cb res with _ -> ());
          Mutex.lock handoff;
          let pt = !pt in
          Mutex.unlock handoff;
          ignore (Serve.Pool.try_result pool pt : _ option)
        in
        Mutex.lock handoff;
        let r = Serve.Pool.submit pool ~tenant ?deadline_s ~size ~on_resolve:hook w in
        Result.iter (fun p -> pt := p) r;
        Mutex.unlock handoff;
        Result.map (fun pt -> { shard; pt; hooked = true }) r
  end

(* The pool that issued [tk]; a shard index out of range raises. *)
let pool_of ~(fn : string) (t : t) (tk : ticket) : Serve.Pool.t =
  if tk.shard < 0 || tk.shard >= t.cfg.shards then
    invalid_arg (Printf.sprintf "Net.Shard.%s: shard %d out of range" fn tk.shard);
  t.pools.(tk.shard)

(** [await ?timeout_s t ticket]: its pool's {!Serve.Pool.await} — the
    result once, [Error Delivered] after it; [Timed_out] leaves the
    ticket in place.  A ticket submitted with [on_resolve] is delivered
    through its hook, so [await] returns [Error Delivered] for it at
    once, resolved or not.  Raises [Invalid_argument] for a ticket
    never issued. *)
let await ?timeout_s (t : t) (tk : ticket) :
    (Serve.Pool.completion, Serve.Pool.error) result =
  let pool = pool_of ~fn:"await" t tk in
  if tk.hooked then Error Serve.Pool.Delivered
  else Serve.Pool.await ?timeout_s pool tk.pt

(** [try_result t ticket]: {!await} without the wait — [None] while
    the ticket is pending, else what {!await} would return. *)
let try_result (t : t) (tk : ticket) :
    (Serve.Pool.completion, Serve.Pool.error) result option =
  let pool = pool_of ~fn:"try_result" t tk in
  if tk.hooked then Some (Error Serve.Pool.Delivered)
  else Serve.Pool.try_result pool tk.pt

(** [cancel t ticket]: its pool's cancel ({!Serve.Pool.cancel}) — a
    queued request resolves [Cancelled] at once, a running one unwinds
    at its next beat.  [false] for a ticket already resolved,
    delivered or not, or never issued. *)
let cancel ?reason (t : t) (tk : ticket) : bool =
  tk.shard >= 0 && tk.shard < t.cfg.shards
  && Serve.Pool.cancel ?reason t.pools.(tk.shard) tk.pt

let no_batches = { Batch.flushes = 0; flushed_items = 0; full_flushes = 0 }

(** Statistics read from the pools: live while they run, final once
    {!close} has returned. *)
let stats (t : t) : stats =
  {
    policy = Router.policy_name t.cfg.policy;
    submitted = Atomic.get t.submitted;
    batched_members = 0;
    per_shard =
      Array.mapi
        (fun i pool ->
          {
            routed = Atomic.get t.routed.(i);
            depth = Serve.Pool.depth pool;
            batch = no_batches;
            pool = Serve.Pool.stats pool;
          })
        t.pools;
  }

(** [close t]: stop admission, close the pools — in-flight work
    finishes, queued work resolves [Pool_closed] and flows back through
    the resolution hooks — and return final statistics.  Idempotent;
    concurrent callers wait for the first to finish, as each pool's
    {!Serve.Pool.close} makes them. *)
let close (t : t) : stats =
  Atomic.set t.closing true;
  Array.iter (fun pool -> ignore (Serve.Pool.close pool : Serve.Pool.stats)) t.pools;
  stats t
