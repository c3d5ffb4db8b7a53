(** The serving layer's deterministic scheduling core: bounded
    admission, per-tenant deficit-round-robin fairness, and EDF
    deadline ordering — pure data-structure logic over an {e explicit}
    clock, so every policy is testable on a virtual clock with no
    domains, threads, or wall time involved ({!Suite_serve}).

    The concurrent wrapper ({!Pool}) holds one of these behind its
    mutex and feeds it monotonic timestamps; the tests feed it
    literals.  Structure:

    - {b Admission}: at most [cap] requests queued across all tenants;
      the [cap+1]-th is rejected with [`Queue_full] — the server's
      backpressure signal.  Draining below the cap re-opens admission
      (no hysteresis: the cap {e is} the policy).
    - {b Fairness}: one EDF heap per tenant, a deficit-round-robin
      ring across tenants (DRR, Shreedhar & Varghese).  Each visit
      grants the tenant [quantum] size-units of deficit; its head
      request is served while the deficit covers the request's [size].
      A tenant that goes idle forfeits its deficit, so fairness is
      over {e backlogged} tenants — a 10:1 offered-load skew still
      yields a ~1:1 served share while both queues are non-empty.
    - {b Deadlines}: within a tenant, requests are EDF-ordered (heap
      keyed by absolute deadline, FIFO on ties), so a tight-deadline
      request overtakes earlier-submitted slack ones.  Across tenants,
      a request whose slack has shrunk to [panic_slack] or below is
      served immediately regardless of whose DRR turn it is — its
      tenant's deficit still pays (possibly going negative), so panic
      service is borrowed against, not exempt from, fairness.
    - {b Accounting}: [complete] classifies each finished request
      against its deadline; {!stats} reports admitted / rejected /
      served / met / missed and the per-tenant served shares the
      fairness tests assert on. *)

type 'a req = {
  id : int;  (** unique, assigned by the caller; FIFO tiebreak key *)
  tenant : string;
  deadline : float;  (** absolute, on the caller's clock *)
  size : int;  (** service-size estimate in DRR units, ≥ 1 *)
  enqueued : float;  (** admission stamp, for sojourn and hint math *)
  payload : 'a;
}

type config = {
  cap : int;  (** max queued requests across all tenants *)
  quantum : int;  (** DRR deficit grant per visit, in size units *)
  panic_slack : float;
      (** serve any request whose [deadline − now] ≤ this immediately,
          bypassing the round-robin order (its tenant still pays) *)
}

let default_config = { cap = 512; quantum = 1; panic_slack = 0. }

(* ------------------------------------------------------------------ *)
(* A binary min-heap keyed by (deadline, id): the per-tenant EDF
   queue.  FIFO on deadline ties — ids are assigned in admission
   order.  A slot outside [0, n) is [None], so a served, drained or
   cancelled request — and its payload — is not kept reachable by the
   heap's spare capacity. *)

module Heap = struct
  type 'a t = { mutable a : 'a req option array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let is_empty h = h.n = 0

  let get (h : 'a t) (i : int) : 'a req =
    match h.a.(i) with Some r -> r | None -> assert false

  let before (x : 'a req) (y : 'a req) : bool =
    x.deadline < y.deadline || (x.deadline = y.deadline && x.id < y.id)

  let swap (h : 'a t) (i : int) (j : int) : unit =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push (h : 'a t) (r : 'a req) : unit =
    if h.n = Array.length h.a then begin
      let a = Array.make (max 8 (2 * Array.length h.a)) None in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- Some r;
    h.n <- h.n + 1;
    (* sift up *)
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before (get h !i) (get h p)
    do
      let p = (!i - 1) / 2 in
      swap h p !i;
      i := p
    done

  let min (h : 'a t) : 'a req option = if h.n = 0 then None else h.a.(0)

  let pop_min (h : 'a t) : 'a req option =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      h.a.(h.n) <- None;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && before (get h l) (get h !s) then s := l;
        if r < h.n && before (get h r) (get h !s) then s := r;
        if !s = !i then continue := false
        else begin
          swap h !s !i;
          i := !s
        end
      done;
      top
    end

  let to_list (h : 'a t) : 'a req list = List.init h.n (get h)

  (** Empty the heap, releasing every request it held. *)
  let clear (h : 'a t) : unit =
    Array.fill h.a 0 h.n None;
    h.n <- 0
end

(* ------------------------------------------------------------------ *)

type 'a tenant = {
  name : string;
  heap : 'a Heap.t;
  mutable deficit : int;
  mutable in_ring : bool;
  mutable served : int;
}

type 'a t = {
  cfg : config;
  tenants : (string, 'a tenant) Hashtbl.t;
  ring : 'a tenant Queue.t;  (** backlogged tenants, round-robin order *)
  mutable queued : int;
  (* accounting *)
  mutable admitted : int;
  mutable rejected : int;
  mutable served_total : int;
  mutable met : int;
  mutable missed : int;
}

type stats = {
  queued : int;
  admitted : int;
  rejected : int;
  served : int;
  met : int;
  missed : int;
  per_tenant : (string * int) list;  (** served count per tenant *)
}

let create ?(config = default_config) () : 'a t =
  if config.cap < 1 then invalid_arg "Sched.create: cap must be >= 1";
  if config.quantum < 1 then invalid_arg "Sched.create: quantum must be >= 1";
  {
    cfg = config;
    tenants = Hashtbl.create 16;
    ring = Queue.create ();
    queued = 0;
    admitted = 0;
    rejected = 0;
    served_total = 0;
    met = 0;
    missed = 0;
  }

let length (s : _ t) : int = s.queued
let is_empty (s : _ t) : bool = s.queued = 0

let tenant_of (s : 'a t) (name : string) : 'a tenant =
  match Hashtbl.find_opt s.tenants name with
  | Some t -> t
  | None ->
      let t =
        { name; heap = Heap.create (); deficit = 0; in_ring = false;
          served = 0 }
      in
      Hashtbl.add s.tenants name t;
      t

(** [admit s r] queues [r] unless the global cap is reached — the
    backpressure boundary.  Rejections are counted but otherwise
    stateless: once the queue drains below [cap], admission re-opens
    by construction. *)
let admit (s : 'a t) (r : 'a req) : (unit, [ `Queue_full ]) result =
  if s.queued >= s.cfg.cap then begin
    s.rejected <- s.rejected + 1;
    Error `Queue_full
  end
  else begin
    let t = tenant_of s r.tenant in
    Heap.push t.heap { r with size = max 1 r.size };
    if not t.in_ring then begin
      t.in_ring <- true;
      Queue.add t s.ring
    end;
    s.queued <- s.queued + 1;
    s.admitted <- s.admitted + 1;
    Ok ()
  end

(* Bookkeeping shared by the DRR path and the panic override: charge
   the tenant and retire the head.  Ring membership is the caller's
   business — [in_ring] must mean "has exactly one entry in the ring
   queue", or a tenant could earn two quanta per sweep. *)
let take_head (s : 'a t) (t : 'a tenant) : 'a req =
  let r = Option.get (Heap.pop_min t.heap) in
  t.deficit <- t.deficit - r.size;
  t.served <- t.served + 1;
  s.queued <- s.queued - 1;
  s.served_total <- s.served_total + 1;
  r

(** [next s ~now] dispatches the next request, or [None] on an empty
    scheduler.  A head whose slack is ≤ [panic_slack] wins immediately
    (global EDF among panicked heads); otherwise deficit round-robin
    across backlogged tenants, EDF within the winner. *)
let next (s : 'a t) ~(now : float) : 'a req option =
  if s.queued = 0 then None
  else begin
    (* panic override: globally earliest-deadline head at or past the
       panic threshold *)
    let panicked =
      Queue.fold
        (fun acc t ->
          match Heap.min t.heap with
          | Some h when h.deadline -. now <= s.cfg.panic_slack -> (
              match acc with
              | Some (bh, _) when Heap.before bh h -> acc
              | _ -> Some (h, t))
          | _ -> acc)
        None s.ring
    in
    match panicked with
    | Some (_, t) ->
        (* the tenant keeps its ring slot; if this emptied its heap
           the sweep below lazily retires the stale entry *)
        Some (take_head s t)
    | None ->
        (* DRR sweep: each visited tenant earns a quantum; the first
           whose deficit covers its head is served and re-queued at
           the ring's tail.  Terminates because every full ring pass
           adds [quantum] to some backlogged tenant whose head size is
           finite. *)
        let rec sweep () =
          match Queue.take_opt s.ring with
          | None -> None (* unreachable while queued > 0 *)
          | Some t ->
              if Heap.is_empty t.heap then begin
                (* stale ring entry (emptied via the panic path) *)
                t.in_ring <- false;
                t.deficit <- 0;
                sweep ()
              end
              else begin
                t.deficit <- t.deficit + s.cfg.quantum;
                let head = Option.get (Heap.min t.heap) in
                if t.deficit >= head.size then begin
                  let r = take_head s t in
                  if Heap.is_empty t.heap then begin
                    (* idle tenants forfeit their deficit: fairness is
                       among the currently backlogged, not a credit
                       bank across idle periods *)
                    t.deficit <- 0;
                    t.in_ring <- false
                  end
                  else Queue.add t s.ring;
                  Some r
                end
                else begin
                  Queue.add t s.ring;
                  sweep ()
                end
              end
        in
        sweep ()
  end

(** [drain s] removes and returns everything still queued (close
    path); the scheduler is empty afterwards.  Drained requests are
    neither served nor deadline-classified. *)
let drain (s : 'a t) : 'a req list =
  let all =
    Hashtbl.fold (fun _ t acc -> Heap.to_list t.heap @ acc) s.tenants []
  in
  Hashtbl.iter
    (fun _ t ->
      Heap.clear t.heap;
      t.deficit <- 0;
      t.in_ring <- false)
    s.tenants;
  Queue.clear s.ring;
  s.queued <- 0;
  List.sort (fun (a : 'a req) b -> compare a.id b.id) all

(** [cancel s ~id] removes a still-queued request by ticket, returning
    it (the pool resolves its ticket with the typed [Cancelled]).
    Linear in the owning tenant's backlog — cancellation is the rare
    path; dispatch stays O(log n).  [None] when no queued request has
    that id (it may be running, resolved, or unknown). *)
let cancel (s : 'a t) ~(id : int) : 'a req option =
  let found = ref None in
  Hashtbl.iter
    (fun _ (t : 'a tenant) ->
      if Option.is_none !found then begin
        let keep =
          List.filter
            (fun (r : 'a req) ->
              if r.id = id && Option.is_none !found then begin
                found := Some r;
                false
              end
              else true)
            (Heap.to_list t.heap)
        in
        if Option.is_some !found then begin
          (* rebuild the EDF heap without the victim; an emptied tenant
             keeps its ring entry and is lazily retired by the next
             sweep, exactly like the panic path *)
          Heap.clear t.heap;
          List.iter (Heap.push t.heap) keep;
          if Heap.is_empty t.heap then t.deficit <- 0
        end
      end)
    s.tenants;
  (match !found with Some _ -> s.queued <- s.queued - 1 | None -> ());
  !found

(** [complete s ~now r] classifies a finished request against its
    deadline and returns the verdict. *)
let complete (s : _ t) ~(now : float) (r : _ req) : [ `Met | `Missed ] =
  if now <= r.deadline then begin
    s.met <- s.met + 1;
    `Met
  end
  else begin
    s.missed <- s.missed + 1;
    `Missed
  end

let stats (s : _ t) : stats =
  {
    queued = s.queued;
    admitted = s.admitted;
    rejected = s.rejected;
    served = s.served_total;
    met = s.met;
    missed = s.missed;
    per_tenant =
      Hashtbl.fold
        (fun name (t : _ tenant) acc -> (name, t.served) :: acc)
        s.tenants []
      |> List.sort compare;
  }

(* ------------------------------------------------------------------ *)

(** [promotion_hint ~now r] maps a request's remaining slack to a
    {!Par.Runtime.set_urgency} shift: 0 with more than half its
    deadline budget left, rising by 1 as the remaining fraction
    halves, up to 6 for overdue work.  Each step halves the effective
    beat period, so a request near its SLO promotes its latent
    parallelism roughly twice as eagerly per step — the deadline-aware
    promotion policy of the laser EDF notes.  Pure, for the
    monotonicity test. *)
let promotion_hint ~(now : float) (r : _ req) : int =
  let budget = r.deadline -. r.enqueued in
  let slack = r.deadline -. now in
  if slack <= 0. then 6
  else if budget <= 0. then 6
  else begin
    let frac = slack /. budget in
    (* number of halvings of the remaining budget fraction below 1 *)
    let rec steps acc f = if f > 0.5 || acc >= 6 then acc else steps (acc + 1) (f *. 2.) in
    steps 0 frac
  end
