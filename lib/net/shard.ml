(** Multi-pool sharding: N {!Serve.Pool}s, each owning its own warm
    {!Par.Runtime} session over a disjoint domain set, behind a
    {!Router} placement policy — the space-sharing layer ROADMAP item
    2 asks for.  One pool runs one request at a time (the heartbeat's
    outermost-first discipline is per-session); the shard layer
    restores concurrency {e between} requests by partitioning the
    hardware, so a small request routed to the small shard never waits
    behind a large request grinding on another shard's domains.

    Every request takes one path: it is routed, then submitted to the
    routed shard's pool as one pool ticket.  Tickets are shard-level:
    the caller never sees which pool served a request.  Resolution is
    push-based end to end — each pool submission carries an
    [on_resolve] hook — so the socket front-end ({!Server}) needs no
    await-thread per in-flight request.

    Per ticket, the shard holds state only while the ticket is in
    flight or unread: a ticket submitted with a hook is delivered
    through it and never stored, one without a hook is stored until
    the first {!await}/{!try_result} that returns it, and the shard
    reads each of its pool tickets once, from the pool's hook, so the
    pools forget them too.  The stored results and which tickets were
    answered live in one {!Serve.Answered}.

    Lock order is strictly [shard.m -> pool.m]; pool hooks run with no
    pool lock held and take [shard.m], and a caller's hook runs after
    [shard.m] drops. *)

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
      (** observability hook, fired per placement decision under the
          shard lock — must be cheap and must not call back in *)
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

type ticket = int

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

(* The pool ticket that serves a shard ticket, for [cancel]. *)
type target = { shard : int; pt : Serve.Pool.ticket }

type t = {
  cfg : config;
  pools : Serve.Pool.t array;
  m : Mutex.t;
  cv : Condition.t;
  results : (Serve.Pool.completion, Serve.Pool.error) result Serve.Answered.t;
      (** which tickets resolved, and the result of each one without a
          hook until its first read *)
  targets : (ticket, target) Hashtbl.t;  (** tickets in flight *)
  mutable next : int;
  mutable submitted : int;
  routed : int array;
  mutable closing : bool;
  mutable final : Serve.Pool.stats array option;  (** set once closed *)
}

(** [create ?config ()] boots [config.shards] pools — each its own
    warm session with [config.pool.runtime.domains] worker domains. *)
let create ?(config = default_config) () : t =
  if config.shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  {
    cfg = config;
    pools =
      Array.init config.shards (fun _ -> Serve.Pool.create ~config:config.pool ());
    m = Mutex.create ();
    cv = Condition.create ();
    results = Serve.Answered.create ();
    targets = Hashtbl.create 256;
    next = 0;
    submitted = 0;
    routed = Array.make config.shards 0;
    closing = false;
    final = None;
  }

let shard_count (t : t) : int = t.cfg.shards

(** Instantaneous per-shard backlog (the router's own input; exposed
    for tests and metrics). *)
let depths (t : t) : int array = Array.map Serve.Pool.depth t.pools

(* The pool hook of shard ticket [id]: a caller's hook is its ticket's
   delivery, so only a hookless result is stored, for its first read.
   The pool hook already carried its ticket's result; reading it once
   is what lets the pool forget it.  The hook reads [pt] after taking
   [t.m], and the submitter sets it before releasing [t.m], so it is
   valid by then. *)
let resolve (t : t) (id : ticket) ~(shard : int) (pt : Serve.Pool.ticket ref)
    on_resolve (res : (Serve.Pool.completion, Serve.Pool.error) result) : unit =
  Mutex.lock t.m;
  Hashtbl.remove t.targets id;
  let stored = match on_resolve with Some _ -> None | None -> Some res in
  ignore (Serve.Answered.resolve t.results id stored : bool);
  Condition.broadcast t.cv;
  let pt = !pt in
  Mutex.unlock t.m;
  Option.iter (fun cb -> try cb res with _ -> ()) on_resolve;
  ignore (Serve.Pool.try_result t.pools.(shard) pt : _ option)

(** [submit t ~tenant ?deadline_s ?size ?on_resolve w]: route, then
    submit to the routed shard's pool.  Returns a shard-level ticket;
    [on_resolve] fires exactly once, with no shard lock held, when it
    resolves.  An [Error] return issues no ticket, and [on_resolve]
    never fires for it. *)
let submit (t : t) ~(tenant : string) ?deadline_s ?(size = 1)
    ?(on_resolve :
       ((Serve.Pool.completion, Serve.Pool.error) result -> unit) option)
    (w : Serve.Pool.work) : (ticket, Serve.Pool.error) result =
  (* the depth probes take each pool's lock under ours, the sanctioned
     [shard.m -> pool.m] order *)
  Mutex.lock t.m;
  let r =
    if t.closing then Error Serve.Pool.Pool_closed
    else begin
      t.submitted <- t.submitted + 1;
      let id = t.next in
      let depths = Array.map Serve.Pool.depth t.pools in
      let shard = Router.route t.cfg.policy ~depths ~tenant ~size in
      t.routed.(shard) <- t.routed.(shard) + 1;
      (match t.cfg.on_route with Some f -> f ~shard ~size | None -> ());
      let pt = ref (-1) in
      match
        Serve.Pool.submit t.pools.(shard) ~tenant ?deadline_s ~size
          ~on_resolve:(resolve t id ~shard pt on_resolve)
          w
      with
      | Ok p ->
          pt := p;
          t.next <- id + 1;
          Hashtbl.replace t.targets id { shard; pt = p };
          Ok id
      | Error e ->
          (* a refused submit issues no ticket, as in the pool: [id]
             goes to the next submit, so it never holds the watermark *)
          Error e
    end
  in
  Mutex.unlock t.m;
  r

(* A read of [ticket], under [m]; as {!Serve.Pool}'s: [Some] result
   once, [Some (Error Delivered)] after it (or after its hook ran),
   [None] while pending.  A ticket never issued releases [m] and
   raises [Invalid_argument]. *)
let read_locked ~(fn : string) (t : t) (ticket : ticket) :
    (Serve.Pool.completion, Serve.Pool.error) result option =
  if ticket < 0 || ticket >= t.next then begin
    Mutex.unlock t.m;
    invalid_arg (Printf.sprintf "Net.Shard.%s: ticket %d never issued" fn ticket)
  end;
  match Serve.Answered.take t.results ticket with
  | `Value r -> Some r
  | `Delivered -> Some (Error Serve.Pool.Delivered)
  | `Pending -> None

(** [await ?timeout_s t ticket]: block until the ticket resolves
    (polling when a timeout is given, like {!Serve.Pool.await}) and
    return its result, which the shard then forgets.  A ticket
    submitted with [on_resolve] was delivered through its hook, so
    once it resolves [await] returns [Error Delivered] at once, as it
    does for any ticket already read.  [Timed_out] leaves the ticket
    in place.  Raises [Invalid_argument] for a ticket never issued. *)
let await ?timeout_s (t : t) (ticket : ticket) :
    (Serve.Pool.completion, Serve.Pool.error) result =
  let deadline = Option.map (fun s -> Mclock.now_s () +. s) timeout_s in
  Mutex.lock t.m;
  let rec wait () =
    match read_locked ~fn:"await" t ticket with
    | Some r ->
        Mutex.unlock t.m;
        r
    | None -> (
        match deadline with
        | None ->
            Condition.wait t.cv t.m;
            wait ()
        | Some d ->
            if Mclock.now_s () > d then begin
              Mutex.unlock t.m;
              Error Serve.Pool.Timed_out
            end
            else begin
              Mutex.unlock t.m;
              Thread.delay 0.001;
              Mutex.lock t.m;
              wait ()
            end)
  in
  wait ()

(** [try_result t ticket]: {!await} without the wait — [None] while
    the ticket is pending, else what {!await} would return. *)
let try_result (t : t) (ticket : ticket) :
    (Serve.Pool.completion, Serve.Pool.error) result option =
  Mutex.lock t.m;
  let r = read_locked ~fn:"try_result" t ticket in
  Mutex.unlock t.m;
  r

(** [cancel t ticket]: its pool's cancel ({!Serve.Pool.cancel}) — a
    queued request resolves [Cancelled] at once, a running one unwinds
    at its next beat.  [false] for a ticket already resolved,
    delivered or not, or never issued. *)
let cancel ?(reason : Par.Runtime.cancel_reason = `Explicit) (t : t)
    (ticket : ticket) : bool =
  Mutex.lock t.m;
  let target = Hashtbl.find_opt t.targets ticket in
  Mutex.unlock t.m;
  match target with
  | Some { shard; pt } -> Serve.Pool.cancel ~reason t.pools.(shard) pt
  | None -> false

let no_batches = { Batch.flushes = 0; flushed_items = 0; full_flushes = 0 }

(** Live statistics (pools still running). *)
let stats (t : t) : stats =
  let pool_stats =
    match t.final with
    | Some s -> s
    | None -> Array.map Serve.Pool.stats t.pools
  in
  Mutex.lock t.m;
  let s =
    {
      policy = Router.policy_name t.cfg.policy;
      submitted = t.submitted;
      batched_members = 0;
      per_shard =
        Array.init t.cfg.shards (fun i ->
            {
              routed = t.routed.(i);
              depth = Serve.Pool.depth t.pools.(i);
              batch = no_batches;
              pool = pool_stats.(i);
            });
    }
  in
  Mutex.unlock t.m;
  s

(** [close t]: stop admission, close the pools — in-flight work
    finishes, queued work resolves [Pool_closed] and flows back through
    the resolution hooks — and return final statistics.  Idempotent;
    concurrent callers wait for the first to finish. *)
let close (t : t) : stats =
  Mutex.lock t.m;
  let first = not t.closing in
  t.closing <- true;
  Mutex.unlock t.m;
  if first then begin
    let pool_stats = Array.map Serve.Pool.close t.pools in
    Mutex.lock t.m;
    t.final <- Some pool_stats;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  end
  else begin
    Mutex.lock t.m;
    while t.final = None do
      Condition.wait t.cv t.m
    done;
    Mutex.unlock t.m
  end;
  stats t
