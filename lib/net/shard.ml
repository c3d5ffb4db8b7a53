(** Multi-pool sharding: N {!Serve.Pool}s, each owning its own warm
    {!Par.Runtime} session over a disjoint domain set, behind a
    {!Router} placement policy and a per-shard micro-{!Batch}er — the
    space-sharing layer ROADMAP item 2 asks for.  One pool runs one
    request at a time (the heartbeat's outermost-first discipline is
    per-session); the shard layer restores concurrency {e between}
    requests by partitioning the hardware, so a small request routed
    to the small shard never waits behind a large request grinding on
    another shard's domains.

    Tickets are shard-level: the caller never sees which pool served
    a request.  Resolution is push-based end to end — each pool
    submission carries an [on_resolve] hook, and batched members are
    fanned back out when their batch's single pool ticket resolves —
    so the socket front-end ({!Server}) needs no await-thread per
    in-flight request.

    Per ticket, the shard holds state only while the ticket is in
    flight or unread: a ticket submitted with a hook is delivered
    through it and never stored, one without a hook is stored until
    the first {!await}/{!try_result} that returns it, and the shard
    reads each of its pool tickets once, from the pool's hook, so the
    pools forget them too.  The stored results and which tickets were
    answered live in one {!Serve.Answered}.

    Lock order is strictly [shard.m -> pool.m]; pool callbacks run
    with no pool lock held and take [shard.m], and everything the
    shard stages for user callbacks runs after [shard.m] drops
    (mirroring the pool's own [run_cbs] discipline). *)

type config = {
  shards : int;  (** pool count; 1 = the single-pool FIFO baseline *)
  pool : Serve.Pool.config;  (** per-shard pool template (domain count
                                 here is {e per shard}) *)
  policy : Router.policy;
  batch_max : int;  (** members per micro-batch; <= 1 disables batching *)
  batch_delay_us : float;
      (** how long a partial batch may wait behind a busy pool; a pool
          with nothing running or queued takes parked smalls at once *)
  batch_size_max : int;
      (** only requests with [size <=] this are batched (small
          requests — the same units as the router's [small_max]) *)
  on_route : (shard:int -> size:int -> unit) option;
      (** observability hook, fired per placement decision under the
          shard lock — must be cheap and must not call back in *)
  on_batch : (n:int -> wait_us:int -> unit) option;
      (** observability hook, fired per batch flush under the shard
          lock *)
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
    on_batch = None;
  }

type ticket = int

(* A small request parked for batching: everything needed to submit it
   later and to resolve it per-member afterwards. *)
type member = {
  ticket : ticket;
  work : Serve.Pool.work;
  deadline_abs : float;
  size : int;
  enqueued : float;
}

type target =
  | Parked of int  (** shard index; still in that shard's batcher *)
  | Submitted of { shard : int; pt : Serve.Pool.ticket }
  | Batched of { shard : int }
      (** flushed as part of a batch; no longer individually
          cancellable *)

type shard_stats = {
  routed : int;  (** placement decisions that picked this shard *)
  depth : int;  (** instantaneous pool backlog *)
  batch : Batch.stats;
  pool : Serve.Pool.stats;
}

type stats = {
  policy : string;
  submitted : int;
  batched_members : int;  (** requests that travelled inside a batch *)
  per_shard : shard_stats array;
}

type t = {
  cfg : config;
  pools : Serve.Pool.t array;
  m : Mutex.t;
  cv : Condition.t;
  results : (Serve.Pool.completion, Serve.Pool.error) result Serve.Answered.t;
      (** which tickets resolved, and the result of each one without a
          hook until its first read *)
  cbs :
    ( ticket,
      (Serve.Pool.completion, Serve.Pool.error) result -> unit )
    Hashtbl.t;
  mutable pending_cbs : (unit -> unit) list;
  targets : (ticket, target) Hashtbl.t;
  batchers : member Batch.t array;
  mutable next : int;
  mutable submitted : int;
  routed : int array;
  mutable batched_members : int;
  mutable closing : bool;
  mutable final : Serve.Pool.stats array option;  (** set once closed *)
}

(* ------------------------------------------------------------------ *)
(* Resolution plumbing (the pool's run_cbs discipline, one level up). *)

(* A hook is its ticket's delivery, so only a hookless result is
   stored, for its first read. *)
let resolve_locked (t : t) (id : ticket)
    (res : (Serve.Pool.completion, Serve.Pool.error) result) : unit =
  Hashtbl.remove t.targets id;
  (match Hashtbl.find_opt t.cbs id with
  | Some cb ->
      Hashtbl.remove t.cbs id;
      ignore (Serve.Answered.resolve t.results id None : bool);
      t.pending_cbs <- (fun () -> cb res) :: t.pending_cbs
  | None -> ignore (Serve.Answered.resolve t.results id (Some res) : bool));
  Condition.broadcast t.cv

let run_cbs (t : t) : unit =
  Mutex.lock t.m;
  let cbs = t.pending_cbs in
  t.pending_cbs <- [];
  Mutex.unlock t.m;
  List.iter (fun f -> try f () with _ -> ()) (List.rev cbs)

(* ------------------------------------------------------------------ *)
(* Batched execution. *)

let batchable : Serve.Pool.work -> bool = function
  | Serve.Pool.Tpal _ -> false  (* result shape is per-program, not a
                                   checksum — always a direct submit *)
  | Serve.Pool.Kernel _ | Serve.Pool.Thunk _ -> true

let exec_member (e : (module Workloads.Exec.S)) : Serve.Pool.work -> int =
  function
  | Serve.Pool.Kernel { bench; scale } -> bench.run e ~scale
  | Serve.Pool.Thunk f -> f e
  | Serve.Pool.Tpal _ -> assert false (* excluded by [batchable] *)

(* A pool hook already carried its ticket's result; reading it once is
   what lets the pool forget it.  The hook reads [pt] after taking
   [t.m], and the submitter sets it before releasing [t.m], so it is
   valid by then. *)
let forget_pool_ticket (t : t) (shard : int) (pt : Serve.Pool.ticket) : unit =
  ignore (Serve.Pool.try_result t.pools.(shard) pt : _ option)

(* Fan a resolved batch back out to its members.  Runs on a
   pool-internal thread with no locks held. *)
let rec resolve_batch (t : t) (shard : int) (pt : Serve.Pool.ticket ref)
    (members : member array) (slots : int array)
    (res : (Serve.Pool.completion, Serve.Pool.error) result) : unit =
  Mutex.lock t.m;
  let now = Mclock.now_s () in
  Array.iteri
    (fun i m ->
      let r =
        match res with
        | Ok (_ : Serve.Pool.completion) ->
            (* per-member verdicts: the member's own checksum slot and
               its own deadline, not the batch's folded ones *)
            Ok
              {
                Serve.Pool.outcome = Serve.Pool.Checksum slots.(i);
                sojourn_s = now -. m.enqueued;
                met_deadline = now <= m.deadline_abs;
              }
        | Error e -> Error e
      in
      resolve_locked t m.ticket r)
    members;
  flush_locked t shard;
  Mutex.unlock t.m;
  run_cbs t;
  forget_pool_ticket t shard !pt

(* Submit [members] as one session entry.  Called with [t.m] held. *)
and submit_batch_locked (t : t) (shard : int) (members : member list) : unit =
  match members with
  | [] -> ()
  | _ ->
      let arr = Array.of_list members in
      let k = Array.length arr in
      let slots = Array.make k 0 in
      let now = Mclock.now_s () in
      let dl_abs =
        Array.fold_left (fun a m -> Float.min a m.deadline_abs) infinity arr
      in
      let oldest =
        Array.fold_left (fun a m -> Float.min a m.enqueued) now arr
      in
      let deadline_s = Float.max 1e-4 (dl_abs -. now) in
      let size = Array.fold_left (fun a m -> a + m.size) 0 arr in
      let work =
        Serve.Pool.Thunk
          (fun e ->
            Array.iteri (fun i m -> slots.(i) <- exec_member e m.work) arr;
            Array.fold_left ( + ) 0 slots)
      in
      t.batched_members <- t.batched_members + k;
      (match t.cfg.on_batch with
      | Some f -> f ~n:k ~wait_us:(int_of_float ((now -. oldest) *. 1e6))
      | None -> ());
      (* batches are attributed to a synthetic tenant: DRR fairness
         already ran per-member at routing time; inside a shard the
         batch competes as one unit *)
      let pt = ref (-1) in
      let submit_res =
        Serve.Pool.submit t.pools.(shard) ~tenant:"_batch" ~deadline_s ~size
          ~on_resolve:(resolve_batch t shard pt arr slots)
          work
      in
      (match submit_res with
      | Ok p ->
          pt := p;
          Array.iter
            (fun m -> Hashtbl.replace t.targets m.ticket (Batched { shard }))
            arr
      | Error e ->
          (* backpressure (or a closing pool) applies to every member *)
          Array.iter (fun m -> resolve_locked t m.ticket (Error e)) arr)

(* A pool starts new work only after a completion or on a submit to
   an idle pool, and the shard sees both.  At a completion, flush all
   of [shard]'s parked smalls when its pool has nothing running or
   queued, else only a batch whose oldest member has waited out the
   delay.  Called with [t.m] held. *)
and flush_locked (t : t) (shard : int) : unit =
  let b = t.batchers.(shard) in
  if Batch.pending b > 0 then
    if Serve.Pool.idle t.pools.(shard) then
      submit_batch_locked t shard (Batch.drain b)
    else
      Option.iter (submit_batch_locked t shard)
        (Batch.poll b ~now:(Mclock.now_s ()))

(** [create ?config ()] boots [config.shards] pools — each its own
    warm session with [config.pool.runtime.domains] worker domains. *)
let create ?(config = default_config) () : t =
  if config.shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if config.batch_max > 1 && config.batch_delay_us < 0. then
    invalid_arg "Shard.create: negative batch delay";
  let pools =
    Array.init config.shards (fun _ -> Serve.Pool.create ~config:config.pool ())
  in
  {
    cfg = config;
    pools;
    m = Mutex.create ();
    cv = Condition.create ();
    results = Serve.Answered.create ();
    cbs = Hashtbl.create 256;
    pending_cbs = [];
    targets = Hashtbl.create 256;
    batchers =
      Array.init config.shards (fun _ ->
          Batch.create
            ~max:(max 1 config.batch_max)
            ~delay_s:(config.batch_delay_us /. 1e6));
    next = 0;
    submitted = 0;
    routed = Array.make config.shards 0;
    batched_members = 0;
    closing = false;
    final = None;
  }

let shard_count (t : t) : int = t.cfg.shards

(** Instantaneous per-shard backlog (the router's own input; exposed
    for tests and metrics). *)
let depths (t : t) : int array = Array.map Serve.Pool.depth t.pools

(** [submit t ~tenant ?deadline_s ?size ?on_resolve w]: route, then
    either batch (small, batchable work when batching is on: sent at
    once to an idle pool, else parked) or submit directly.
    Returns a shard-level ticket; [on_resolve] fires exactly once,
    with no shard lock held, when it resolves.  An [Error] return
    issues no ticket, and [on_resolve] never fires for it. *)
let submit (t : t) ~(tenant : string) ?deadline_s ?(size = 1)
    ?(on_resolve :
       ((Serve.Pool.completion, Serve.Pool.error) result -> unit) option)
    (w : Serve.Pool.work) : (ticket, Serve.Pool.error) result =
  (* depth probes take each pool's lock; do them before taking ours
     only if unneeded... they are needed under our routing decision,
     and [shard.m -> pool.m] is the sanctioned order, so probe inside *)
  Mutex.lock t.m;
  let r =
    if t.closing then Error Serve.Pool.Pool_closed
    else begin
      t.submitted <- t.submitted + 1;
      let id = t.next in
      t.next <- id + 1;
      let now = Mclock.now_s () in
      let dl_rel =
        match deadline_s with
        | Some d -> d
        | None -> t.cfg.pool.default_slo_s
      in
      let depths = Array.map Serve.Pool.depth t.pools in
      let shard = Router.route t.cfg.policy ~depths ~tenant ~size in
      t.routed.(shard) <- t.routed.(shard) + 1;
      (match t.cfg.on_route with Some f -> f ~shard ~size | None -> ());
      (match on_resolve with
      | Some cb -> Hashtbl.replace t.cbs id cb
      | None -> ());
      if t.cfg.batch_max > 1 && size <= t.cfg.batch_size_max && batchable w
      then begin
        let m =
          {
            ticket = id;
            work = w;
            deadline_abs = now +. dl_rel;
            size;
            enqueued = now;
          }
        in
        Hashtbl.replace t.targets id (Parked shard);
        (match Batch.add t.batchers.(shard) ~now m with
        | `Hold when Serve.Pool.idle t.pools.(shard) ->
            submit_batch_locked t shard (Batch.drain t.batchers.(shard))
        | `Hold -> ()
        | `Flush ms -> submit_batch_locked t shard ms);
        Ok id
      end
      else begin
        let pt = ref (-1) in
        match
          Serve.Pool.submit t.pools.(shard) ~tenant ~deadline_s:dl_rel ~size
            ~on_resolve:(fun res ->
              Mutex.lock t.m;
              resolve_locked t id res;
              flush_locked t shard;
              Mutex.unlock t.m;
              run_cbs t;
              forget_pool_ticket t shard !pt)
            w
        with
        | Ok p ->
            pt := p;
            Hashtbl.replace t.targets id (Submitted { shard; pt = p });
            Ok id
        | Error e ->
            (* a refused submit issues no ticket, as in the pool: [id]
               goes to the next submit, so it never holds the
               watermark *)
            Hashtbl.remove t.cbs id;
            t.next <- id;
            Error e
      end
    end
  in
  Mutex.unlock t.m;
  run_cbs t;
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

(** [cancel t ticket]: parked members resolve immediately; directly
    submitted requests delegate to their pool's cooperative cancel.
    Members already flushed inside a batch are not individually
    cancellable ([false]) — the batch is one session entry — and
    neither is a ticket already resolved, delivered or not. *)
let cancel ?(reason : Par.Runtime.cancel_reason = `Explicit) (t : t)
    (ticket : ticket) : bool =
  Mutex.lock t.m;
  let action =
    if Serve.Answered.mem t.results ticket then `Miss
    else
      match Hashtbl.find_opt t.targets ticket with
      | Some (Parked shard) -> (
          match
            Batch.remove t.batchers.(shard) ~f:(fun m -> m.ticket = ticket)
          with
          | Some _ ->
              resolve_locked t ticket
                (Error (Serve.Pool.Cancelled reason));
              `Hit
          | None -> `Miss)
      | Some (Submitted { shard; pt }) -> `Pool (t.pools.(shard), pt)
      | Some (Batched _) | None -> `Miss
  in
  Mutex.unlock t.m;
  run_cbs t;
  match action with
  | `Hit -> true
  | `Miss -> false
  | `Pool (pool, pt) -> Serve.Pool.cancel ~reason pool pt

let stats_of (t : t) (pool_stats : Serve.Pool.stats array) : stats =
  {
    policy = Router.policy_name t.cfg.policy;
    submitted = t.submitted;
    batched_members = t.batched_members;
    per_shard =
      Array.init t.cfg.shards (fun i ->
          {
            routed = t.routed.(i);
            depth = Serve.Pool.depth t.pools.(i);
            batch = Batch.stats t.batchers.(i);
            pool = pool_stats.(i);
          });
  }

(** Live statistics (pools still running). *)
let stats (t : t) : stats =
  let pool_stats =
    match t.final with
    | Some s -> s
    | None -> Array.map Serve.Pool.stats t.pools
  in
  Mutex.lock t.m;
  let s = stats_of t pool_stats in
  Mutex.unlock t.m;
  s

(** [close t]: stop admission, flush every parked batch into its pool
    (so parked work gets the pools' typed drain semantics rather than
    silently vanishing), close the pools — in-flight work finishes,
    queued work resolves [Pool_closed] and flows back through the
    resolution hooks — and return final statistics.  Idempotent. *)
let close (t : t) : stats =
  Mutex.lock t.m;
  let first = not t.closing in
  t.closing <- true;
  if first then
    Array.iteri
      (fun s b -> submit_batch_locked t s (Batch.drain b))
      t.batchers;
  Mutex.unlock t.m;
  run_cbs t;
  if first then begin
    let pool_stats = Array.map Serve.Pool.close t.pools in
    Mutex.lock t.m;
    t.final <- Some pool_stats;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    run_cbs t
  end
  else begin
    Mutex.lock t.m;
    while t.final = None do
      Condition.wait t.cv t.m
    done;
    Mutex.unlock t.m
  end;
  stats t
