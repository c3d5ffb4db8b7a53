(** Which tickets have been answered, and the answers not yet read, in
    memory that tracks the tickets in flight or unread rather than the
    number of tickets served.

    A ticket's answer is kept from {!resolve} to the first {!take} that
    returns it, the way a TPAL join record lives from its [jralloc] to
    the join that resolves it; an owner that delivers an answer some
    other way (a hook) resolves the ticket with [None] and keeps
    nothing.  After that, only "answered" is remembered.

    Tickets are dense ints from 0 and are answered roughly in issue
    order, so "answered" is a low watermark [low] — every ticket below
    it is answered — plus the answered tickets above it.  Answering the
    ticket at the watermark advances it past every answered ticket
    that follows, so the explicit part holds only tickets answered
    ahead of an older one still outstanding.  A ticket that never
    resolves holds the watermark, so every answer after it stays
    explicit until it does.

    This is the one place the serving stack keeps per-ticket results
    and asks "was ticket [k] already answered?": {!Pool} for reads and
    [cancel], {!Net.Client} for reads, its [received] count and its
    duplicate count.  ({!Net.Shard} keeps none: its ticket is the
    routed pool's.)  Not thread-safe: each owner guards it with its own
    mutex, and checks itself that a ticket was issued. *)

type 'a t = {
  mutable low : int;  (** every ticket below this is answered *)
  above : (int, unit) Hashtbl.t;  (** answered tickets above [low] *)
  unread : (int, 'a) Hashtbl.t;  (** answers kept for their first read *)
}

let create () : 'a t =
  { low = 0; above = Hashtbl.create 16; unread = Hashtbl.create 64 }

(** [mem t k]: ticket [k] has been answered.  [false] for a negative
    [k], which no owner issues. *)
let mem (t : 'a t) (k : int) : bool =
  k >= 0 && (k < t.low || Hashtbl.mem t.above k)

(* Record [k] as answered: [true] the first time, [false] when it
   already was. *)
let add (t : 'a t) (k : int) : bool =
  if k = t.low then begin
    t.low <- k + 1;
    if Hashtbl.length t.above > 0 then begin
      while Hashtbl.mem t.above t.low do
        Hashtbl.remove t.above t.low;
        t.low <- t.low + 1
      done;
      (* the window closed: give back the buckets a burst grew *)
      if Hashtbl.length t.above = 0 then Hashtbl.reset t.above
    end;
    true
  end
  else if mem t k then false
  else begin
    Hashtbl.replace t.above k ();
    true
  end

(** [resolve t k answer] records ticket [k] as answered and keeps
    [Some] answer for one {!take}; [None] keeps nothing (the owner
    delivered it already).  [true] the first time; [false], keeping
    nothing, when [k] was already answered.  Raises [Invalid_argument]
    for a negative [k]. *)
let resolve (t : 'a t) (k : int) (answer : 'a option) : bool =
  if k < 0 then invalid_arg "Answered.resolve: negative ticket";
  let first = add t k in
  if first then Option.iter (Hashtbl.replace t.unread k) answer;
  first

(** [take t k]: [`Value v] the first time an answer kept for [k] is
    taken (then [t] forgets it), [`Delivered] once [k] is answered and
    nothing is kept for it, [`Pending] before [k] is answered. *)
let take (t : 'a t) (k : int) : [ `Value of 'a | `Delivered | `Pending ] =
  match Hashtbl.find_opt t.unread k with
  | Some v ->
      Hashtbl.remove t.unread k;
      `Value v
  | None -> if mem t k then `Delivered else `Pending

(** Tickets answered so far. *)
let count (t : 'a t) : int = t.low + Hashtbl.length t.above

(** Tickets held explicitly: those answered above the watermark.  At
    most the out-of-order window, never the number answered. *)
let size (t : 'a t) : int = Hashtbl.length t.above
