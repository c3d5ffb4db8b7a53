(** Ignored; kept until the benchmark stops naming it (ROADMAP item
    1).  Nothing in the serving path batches: {!Shard} submits every
    request as its own pool ticket, and reports a zero {!stats} per
    shard.  perfbench's [batch.add_ns] micro-benchmark still calls
    {!create} and {!add}.

    A pure accumulation buffer with two flush triggers — a count bound
    ([max]) and an age bound ([delay_s]) — over an explicit clock.
    Holds items in arrival order; never reorders. *)

type 'a t = {
  max : int;  (** flush when this many items are pending *)
  delay_s : float;  (** flush when the oldest pending item is this old *)
  mutable items : 'a list;  (** newest first *)
  mutable n : int;
  mutable oldest : float;  (** arrival stamp of the head item *)
  (* accounting *)
  mutable flushes : int;
  mutable flushed_items : int;
  mutable full_flushes : int;  (** flushes triggered by the count bound *)
}

let create ~(max : int) ~(delay_s : float) : 'a t =
  if max < 1 then invalid_arg "Batch.create: max must be >= 1";
  {
    max;
    delay_s = Float.max 0. delay_s;
    items = [];
    n = 0;
    oldest = 0.;
    flushes = 0;
    flushed_items = 0;
    full_flushes = 0;
  }

let pending (b : 'a t) : int = b.n

(** Age of the oldest pending item, 0 when empty. *)
let age_s (b : 'a t) ~(now : float) : float =
  if b.n = 0 then 0. else now -. b.oldest

let take (b : 'a t) : 'a list =
  let items = List.rev b.items in
  b.flushes <- b.flushes + 1;
  b.flushed_items <- b.flushed_items + b.n;
  b.items <- [];
  b.n <- 0;
  items

(** [add b ~now x]: buffer [x]; [`Flush batch] when [x] completes a
    full batch (the batch includes [x], in arrival order), [`Hold]
    otherwise. *)
let add (b : 'a t) ~(now : float) (x : 'a) : [ `Hold | `Flush of 'a list ] =
  if b.n = 0 then b.oldest <- now;
  b.items <- x :: b.items;
  b.n <- b.n + 1;
  if b.n >= b.max then begin
    b.full_flushes <- b.full_flushes + 1;
    `Flush (take b)
  end
  else `Hold

(** [poll b ~now]: [Some batch] when the age bound has expired for the
    pending items, [None] otherwise. *)
let poll (b : 'a t) ~(now : float) : 'a list option =
  if b.n > 0 && now -. b.oldest >= b.delay_s then Some (take b) else None

(** [drain b]: whatever is pending, unconditionally (shutdown path). *)
let drain (b : 'a t) : 'a list = if b.n = 0 then [] else take b

(** [remove b ~f]: delete the first pending item satisfying [f]
    (cancellation of a still-parked request); [Some x] if found. *)
let remove (b : 'a t) ~(f : 'a -> bool) : 'a option =
  (* scan oldest-first so "first" means arrival order; [acc] holds the
     scanned prefix newest-first, [rest] the unscanned tail
     oldest-first, so the newest-first invariant of [items] is
     [rev rest @ acc].  The [oldest] stamp is left as-is after a head
     removal — at worst the next age-triggered flush fires early,
     never late. *)
  let rec go acc = function
    | [] -> None
    | x :: rest when f x ->
        b.items <- List.rev_append rest acc;
        b.n <- b.n - 1;
        Some x
    | x :: rest -> go (x :: acc) rest
  in
  go [] (List.rev b.items)

type stats = { flushes : int; flushed_items : int; full_flushes : int }

let stats (b : _ t) : stats =
  {
    flushes = b.flushes;
    flushed_items = b.flushed_items;
    full_flushes = b.full_flushes;
  }
