(** A thin, thread-safe client for the {!Server} wire protocol: one
    socket, one reader thread demultiplexing responses into a ticket
    store, writes serialized by a mutex.  Used by the load generator
    ({!Netload}), the CLI client mode, and the loopback tests.

    The client is also the audit's witness: it counts the responses
    it did not expect (a second response for one ticket — an
    exactly-once breach observed at the protocol level — or one for a
    ticket it never issued) and stamps each response's arrival time,
    so round-trip latency is measured where a real caller would feel
    it.

    A response is stored only until {!try_response} or {!await}
    returns it, and after that the client remembers only that the
    ticket was answered; both live in one {!Serve.Answered}, so the
    client's memory tracks the responses in flight or unread, not the
    responses received. *)

type response = {
  status : Wire.status;
  value : int;
  sojourn_us : int;  (** server-side sojourn, from the response frame *)
  info : string;
  at : float;  (** client-side arrival stamp ({!Mclock.now_s}) *)
}

type t = {
  fd : Unix.file_descr;
  w_m : Mutex.t;
  m : Mutex.t;
  cv : Condition.t;
  results : response Serve.Answered.t;
      (** which tickets have a response, and each response until it is
          read *)
  mutable next : int;
  mutable duplicates : int;
  mutable shards : int option;  (** from [Hello_ok] *)
  mutable drain_pending : int option;  (** last [Drain] notice seen *)
  mutable eof : bool;  (** server closed (or framing died) *)
  mutable dead : Wire.error option;
  mutable reader : Thread.t option;
}

let reader_loop (t : t) : unit =
  let dec = Wire.Decoder.create () in
  let buf = Bytes.create 65536 in
  let on_frame = function
    | Wire.Response { ticket; status; value; sojourn_us; info } ->
        Mutex.lock t.m;
        (* a ticket never issued is dropped before it reaches the set,
           so a peer cannot grow it or release a window early *)
        if
          ticket >= 0 && ticket < t.next
          && Serve.Answered.resolve t.results ticket
               (Some { status; value; sojourn_us; info; at = Mclock.now_s () })
        then Condition.broadcast t.cv
        else t.duplicates <- t.duplicates + 1;
        Mutex.unlock t.m
    | Wire.Hello_ok { shards } ->
        Mutex.lock t.m;
        t.shards <- Some shards;
        Condition.broadcast t.cv;
        Mutex.unlock t.m
    | Wire.Drain { pending } ->
        Mutex.lock t.m;
        t.drain_pending <- Some pending;
        Condition.broadcast t.cv;
        Mutex.unlock t.m
    | Wire.Metrics _ | Wire.Hello _ | Wire.Submit _ | Wire.Cancel _
    | Wire.Metrics_request | Wire.Bye ->
        ()
  in
  let rec drain () =
    match Wire.Decoder.next dec with
    | `Frame f ->
        on_frame f;
        drain ()
    | `Skip _ -> drain ()
    | `Await -> true
    | `Dead e ->
        Mutex.lock t.m;
        t.dead <- Some e;
        Mutex.unlock t.m;
        false
  in
  let rec loop () =
    match Unix.read t.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Wire.Decoder.feed dec buf 0 n;
        if drain () then loop ()
    | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> loop ()
    | exception _ -> ()
  in
  loop ();
  Mutex.lock t.m;
  t.eof <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let send (t : t) (f : Wire.frame) : unit =
  let s = Wire.encode f in
  let b = Bytes.unsafe_of_string s in
  Mutex.lock t.w_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.w_m)
    (fun () ->
      let off = ref 0 in
      let n = Bytes.length b in
      while !off < n do
        let w = Unix.write t.fd b !off (n - !off) in
        if w <= 0 then failwith "Net.Client: short write";
        off := !off + w
      done)

(** [connect ?client addr] dials, sends [Hello], and waits for
    [Hello_ok] (raising [Failure] if the server hangs up first).  An
    unresolvable host raises {!Server.Unresolved}; a refused or failed
    dial raises its [Unix_error] and keeps no socket. *)
let connect ?(client = "tpal-client") (addr : Server.addr) : t =
  let sa = Server.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Server.closing_on_error fd (fun () -> Unix.connect fd sa);
  let t =
    {
      fd;
      w_m = Mutex.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      results = Serve.Answered.create ();
      next = 0;
      duplicates = 0;
      shards = None;
      drain_pending = None;
      eof = false;
      dead = None;
      reader = None;
    }
  in
  t.reader <- Some (Thread.create reader_loop t);
  send t (Wire.Hello { client });
  Mutex.lock t.m;
  while t.shards = None && not t.eof do
    Condition.wait t.cv t.m
  done;
  let ok = t.shards <> None in
  Mutex.unlock t.m;
  if not ok then failwith "Net.Client.connect: no Hello_ok (server closed)";
  t

let shards (t : t) : int =
  Mutex.lock t.m;
  let s = Option.value t.shards ~default:0 in
  Mutex.unlock t.m;
  s

(** [submit t ~tenant ?deadline_us ?size payload] sends a [Submit]
    under a fresh client ticket and returns that ticket. *)
let submit (t : t) ~(tenant : string) ?(deadline_us = 0) ?(size = 1)
    (payload : Wire.payload) : int =
  Mutex.lock t.m;
  let ticket = t.next in
  t.next <- ticket + 1;
  Mutex.unlock t.m;
  send t (Wire.Submit { ticket; tenant; deadline_us; size; payload });
  ticket

let cancel (t : t) (ticket : int) : unit = send t (Wire.Cancel { ticket })
let bye (t : t) : unit = try send t Wire.Bye with _ -> ()

(* A read of [ticket], under [m].  A ticket this client never issued
   releases [m] and raises [Invalid_argument]. *)
let read_locked ~(fn : string) (t : t) (ticket : int) =
  if ticket < 0 || ticket >= t.next then begin
    Mutex.unlock t.m;
    invalid_arg (Printf.sprintf "Net.Client.%s: ticket %d never issued" fn ticket)
  end;
  Serve.Answered.take t.results ticket

(** [try_response t ticket]: the ticket's response if it has arrived
    and was not read yet.  Returning it is the one read: the client
    forgets it, and later reads get [None].  Raises [Invalid_argument]
    for a ticket never issued. *)
let try_response (t : t) (ticket : int) : response option =
  Mutex.lock t.m;
  let r =
    match read_locked ~fn:"try_response" t ticket with
    | `Value r -> Some r
    | `Delivered | `Pending -> None
  in
  Mutex.unlock t.m;
  r

(** Tickets that have received a response (the first one each), read
    or not. *)
let received (t : t) : int =
  Mutex.lock t.m;
  let n = Serve.Answered.count t.results in
  Mutex.unlock t.m;
  n

(** Responses the client did not expect, dropped on arrival: a second
    response for a ticket (read or not), or one for a ticket the
    client never issued.  Zero in a correct exchange. *)
let duplicates (t : t) : int =
  Mutex.lock t.m;
  let d = t.duplicates in
  Mutex.unlock t.m;
  d

(** [await ?timeout_s t ticket]: block until the ticket's response
    arrives and return it; as with {!try_response}, that is its one
    read.  [None] if the connection dies first (a lost request), the
    timeout passes, or the response was already read — the last at
    once, without waiting.  Raises [Invalid_argument] for a ticket
    never issued. *)
let await ?timeout_s (t : t) (ticket : int) : response option =
  let deadline = Option.map (fun s -> Mclock.now_s () +. s) timeout_s in
  Mutex.lock t.m;
  let rec wait () =
    match read_locked ~fn:"await" t ticket with
    | `Value r ->
        Mutex.unlock t.m;
        Some r
    | `Delivered ->
        Mutex.unlock t.m;
        None
    | `Pending ->
        if t.eof then begin
          Mutex.unlock t.m;
          None
        end
        else begin
          (match deadline with
          | None -> Condition.wait t.cv t.m
          | Some d ->
              if Mclock.now_s () > d then raise Exit
              else begin
                Mutex.unlock t.m;
                Thread.delay 0.001;
                Mutex.lock t.m
              end);
          wait ()
        end
  in
  try wait () with
  | Exit ->
      Mutex.unlock t.m;
      None

(** [wait_inflight_below t ~submitted ~window] blocks until fewer
    than [window] of the first [submitted] tickets lack a response —
    the windowed closed-loop gate. *)
let wait_inflight_below (t : t) ~(submitted : int) ~(window : int) : unit =
  Mutex.lock t.m;
  while submitted - Serve.Answered.count t.results >= window && not t.eof do
    Condition.wait t.cv t.m
  done;
  Mutex.unlock t.m

(** [drain t ~submitted ~timeout_s] waits until every submitted ticket
    has a response, the server hangs up, or the timeout passes. *)
let drain (t : t) ~(submitted : int) ~(timeout_s : float) : unit =
  let deadline = Mclock.now_s () +. timeout_s in
  Mutex.lock t.m;
  while
    Serve.Answered.count t.results < submitted
    && (not t.eof)
    && Mclock.now_s () < deadline
  do
    Mutex.unlock t.m;
    Thread.delay 0.002;
    Mutex.lock t.m
  done;
  Mutex.unlock t.m

let close (t : t) : unit =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
  Option.iter Thread.join t.reader;
  try Unix.close t.fd with _ -> ()
