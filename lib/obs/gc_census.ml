(** GC census: per-domain counts and times of the garbage collector's
    stop-the-world sections, read from the runtime's own event rings
    (the compiler's [runtime_events] library).

    In OCaml 5 every minor collection, and every major slice a domain
    requests from its allocation, is a stop-the-world (STW) section
    that every domain joins: the domain that asked leads it
    ([`Stw_leader]), each other domain runs its handler
    ([`Stw_handler]).  The runtime writes these phases, stamped with
    [CLOCK_MONOTONIC] nanoseconds ({!Mclock}'s clock), to one ring per
    live domain.  {!start} switches the rings on and starts a poller
    thread on the calling domain; the poller folds each ring's
    [`Stw_leader], [`Stw_handler], [`Minor] and [`Major_slice] phases
    into a count and a total time; {!stop} reads what is left and
    pauses the rings.

    Rings are the runtime's domain slots: ring 0 is the main domain,
    and a spawned domain takes the lowest free slot, so one ring may
    serve several domains in turn (a pool's warm restart, a server
    rotation).  A ring's [gc_ns] is the time it spent in any of the
    four phases, nested ones counted once.

    Opt-in: runtime events are process-wide and, once started, can be
    paused but not switched off, so no library starts a census — a
    driver does, when an operator asks for metrics or a trace.  While
    events run, the runtime keeps a [PID.events] file in the working
    directory (or in [OCAML_RUNTIME_EVENTS_DIR]) and removes it at
    exit.  One census reads the rings at a time.

    With a tracer, each top-level GC interval of a ring becomes one
    {!Event.Gc} span on that ring's ["gc ring K"] track, written by the
    poller (the track's only writer) at the interval's own end time;
    phases nested inside it are listed in the span, so spans on a
    track never overlap.  When the poller falls behind, a ring wraps
    and its oldest events are lost: they are counted per ring, never
    dropped silently, and the ring's open phases are forgotten. *)

type tally = { count : int; ns : int }

type row = {
  ring : int;
  stw_leader : tally;
  stw_handler : tally;
  minor : tally;
  major_slice : tally;
  gc_ns : int;  (** time in any of the four phases *)
  lost : int;  (** events the ring overwrote before they were read *)
}

(* per-ring fold state, indexed by [Event.gc_phase_code] *)
type ring_state = {
  id : int;
  counts : int array;
  totals : int array;
  opened : int array;  (** begin time of each open phase, or -1 *)
  mutable depth : int;  (** open phases *)
  mutable outer : Event.gc_phase;  (** the phase that opened the current interval *)
  mutable outer_at : int;
  mutable inner : Event.gc_phase list;  (** phases begun inside it, newest first *)
  mutable gc_ns : int;
  mutable lost : int;
  track : Ring.t option;
}

type t = {
  tracer : Trace.t option;
  m : Mutex.t;  (** guards the fold state; held across each read *)
  rings : (int, ring_state) Hashtbl.t;
  stopping : bool Atomic.t;
  mutable poller : Thread.t option;
  mutable started_at : int;  (** [Mclock] ns of the running window's start *)
  mutable elapsed_ns : int;  (** over the finished start–stop windows *)
}

let create ?tracer () : t =
  {
    tracer;
    m = Mutex.create ();
    rings = Hashtbl.create 8;
    stopping = Atomic.make false;
    poller = None;
    started_at = 0;
    elapsed_ns = 0;
  }

(* the process has one set of rings, so one cursor and one reader *)
let global = Mutex.create ()
let cursor : Runtime_events.cursor option ref = ref None
let running : t option ref = ref None

let phase_of : Runtime_events.runtime_phase -> Event.gc_phase option =
  function
  | EV_STW_LEADER -> Some `Stw_leader
  | EV_STW_HANDLER -> Some `Stw_handler
  | EV_MINOR -> Some `Minor
  | EV_MAJOR_SLICE -> Some `Major_slice
  | _ -> None

let ns_of (ts : Runtime_events.Timestamp.t) : int =
  Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let ring_state (t : t) (id : int) : ring_state =
  match Hashtbl.find_opt t.rings id with
  | Some r -> r
  | None ->
      let r =
        {
          id;
          counts = Array.make 4 0;
          totals = Array.make 4 0;
          opened = Array.make 4 (-1);
          depth = 0;
          outer = `Minor;
          outer_at = 0;
          inner = [];
          gc_ns = 0;
          lost = 0;
          track =
            Option.map
              (fun tr -> Trace.track tr (Printf.sprintf "gc ring %d" id))
              t.tracer;
        }
      in
      Hashtbl.replace t.rings id r;
      r

let on_begin (t : t) (id : int) (at : int) (p : Event.gc_phase) : unit =
  let r = ring_state t id in
  let c = Event.gc_phase_code p in
  if r.opened.(c) < 0 then begin
    r.opened.(c) <- at;
    if r.depth = 0 then begin
      r.outer <- p;
      r.outer_at <- at;
      r.inner <- []
    end
    else if not (List.mem p r.inner) then r.inner <- p :: r.inner;
    r.depth <- r.depth + 1
  end

(* an end with no begin (it began before the census, or was lost) is
   not counted *)
let on_end (t : t) (id : int) (at : int) (p : Event.gc_phase) : unit =
  let r = ring_state t id in
  let c = Event.gc_phase_code p in
  let t0 = r.opened.(c) in
  if t0 >= 0 then begin
    r.opened.(c) <- -1;
    r.counts.(c) <- r.counts.(c) + 1;
    r.totals.(c) <- r.totals.(c) + (at - t0);
    r.depth <- r.depth - 1;
    if r.depth = 0 then begin
      let ns = at - r.outer_at in
      r.gc_ns <- r.gc_ns + ns;
      match (r.track, t.tracer) with
      | Some ring, Some tr ->
          let code, a, b =
            Event.encode
              (Gc
                 {
                   phase = r.outer;
                   inner =
                     List.filter (fun p -> List.mem p r.inner) Event.gc_phases;
                   ns;
                 })
          in
          Ring.emit ring ~code ~at_ns:(max 0 (at - tr.t0_ns)) ~a ~b
      | _ -> ()
    end
  end

let on_lost (t : t) (id : int) (n : int) : unit =
  let r = ring_state t id in
  r.lost <- r.lost + n;
  Array.fill r.opened 0 4 (-1);
  r.depth <- 0

let callbacks (t : t) : Runtime_events.Callbacks.t =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun id ts ph ->
      match phase_of ph with Some p -> on_begin t id (ns_of ts) p | None -> ())
    ~runtime_end:(fun id ts ph ->
      match phase_of ph with Some p -> on_end t id (ns_of ts) p | None -> ())
    ~lost_events:(on_lost t) ()

let read (t : t) (c : Runtime_events.cursor) (cb : Runtime_events.Callbacks.t)
    : unit =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () -> ignore (Runtime_events.read_poll c cb None))

(** How often the poller reads the rings.  A ring holds 64k words by
    default; at the ≈12k major slices a second seen on a busy serving
    domain, a 10 ms period keeps it far from wrapping. *)
let poll_period_s = 0.01

let running_ns (t : t) : int =
  t.elapsed_ns
  + if Option.is_some t.poller then Mclock.now_ns () - t.started_at else 0

(* The runtime aborts the process when it cannot create its ring
   file, so try the directory first and fail with a typed error. *)
let check_events_dir () : unit =
  let dir =
    match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.current_dir_name
  in
  Sys.remove (Filename.temp_file ~temp_dir:dir "gc_census" ".probe")

(** [start t] switches the runtime's event rings on and starts the
    poller.  Events from before the call are skipped.  Idempotent while
    [t] runs; after {!stop} it resumes counting where [t] left off.
    Raises [Sys_error] when the rings' directory is not writable and
    [Invalid_argument] while another census runs. *)
let start (t : t) : unit =
  Mutex.lock global;
  Fun.protect ~finally:(fun () -> Mutex.unlock global) @@ fun () ->
  match !running with
  | Some u when u == t -> ()
  | Some _ -> invalid_arg "Obs.Gc_census.start: another census is running"
  | None ->
      if Option.is_none !cursor then check_events_dir ();
      Runtime_events.start ();
      Runtime_events.resume ();
      let c =
        match !cursor with
        | Some c -> c
        | None ->
            let c = Runtime_events.create_cursor None in
            cursor := Some c;
            c
      in
      ignore (Runtime_events.read_poll c (Runtime_events.Callbacks.create ()) None);
      let cb = callbacks t in
      running := Some t;
      Atomic.set t.stopping false;
      t.started_at <- Mclock.now_ns ();
      t.poller <-
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get t.stopping) do
                 Thread.delay poll_period_s;
                 read t c cb
               done)
             ())

(** [stop t] stops the poller, reads the rings a last time and pauses
    them.  Idempotent; a census never started stops at once. *)
let stop (t : t) : unit =
  Mutex.lock global;
  Fun.protect ~finally:(fun () -> Mutex.unlock global) @@ fun () ->
  match (!running, !cursor) with
  | Some u, Some c when u == t ->
      Atomic.set t.stopping true;
      Option.iter Thread.join t.poller;
      read t c (callbacks t);
      Runtime_events.pause ();
      t.elapsed_ns <- t.elapsed_ns + (Mclock.now_ns () - t.started_at);
      t.poller <- None;
      running := None
  | _ -> ()

(** One row per ring seen, by ring index. *)
let rows (t : t) : row list =
  Mutex.lock t.m;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) t.rings [] in
  let tally r p =
    let c = Event.gc_phase_code p in
    { count = r.counts.(c); ns = r.totals.(c) }
  in
  let rows =
    List.map
      (fun r ->
        {
          ring = r.id;
          stw_leader = tally r `Stw_leader;
          stw_handler = tally r `Stw_handler;
          minor = tally r `Minor;
          major_slice = tally r `Major_slice;
          gc_ns = r.gc_ns;
          lost = r.lost;
        })
      rs
  in
  Mutex.unlock t.m;
  List.sort (fun a b -> compare a.ring b.ring) rows

(** The per-domain GC table: for each ring, the count and milliseconds
    of each phase, its GC share of the census's wall time, and its lost
    events. *)
let pp ppf (t : t) =
  let rows = rows t in
  let wall_ns = max 1 (running_ns t) in
  let ms ns = float_of_int ns /. 1e6 in
  let cell ppf (x : tally) = Fmt.pf ppf "%7d %9.2f" x.count (ms x.ns) in
  Fmt.pf ppf
    "@[<v>gc census: %.3f s, %d ring(s), %d lost event(s)@,\
     ring  %17s %17s %17s %17s %9s %6s %6s"
    (float_of_int wall_ns *. 1e-9)
    (List.length rows)
    (List.fold_left (fun n (r : row) -> n + r.lost) 0 rows)
    "stw-leader n/ms" "stw-handler n/ms" "minor n/ms" "major-slice n/ms"
    "gc ms" "gc %" "lost";
  List.iter
    (fun r ->
      Fmt.pf ppf "@,%4d  %a %a %a %a %9.2f %5.1f%% %6d" (r : row).ring cell
        r.stw_leader cell r.stw_handler cell r.minor cell r.major_slice
        (ms r.gc_ns)
        (100. *. float_of_int r.gc_ns /. float_of_int wall_ns)
        r.lost)
    rows;
  Fmt.pf ppf "@]"
