(** The socket front-end: accepts many client connections on a Unix
    path or TCP endpoint, decodes {!Wire} frames off each, feeds
    {!Shard} (which routes and pools), and pushes typed
    responses back as work resolves — no thread parked per in-flight
    request; the resolution hooks carry everything.

    Threading: one accept thread (select-with-timeout so shutdown
    never races a blocked [accept]), plus a reader and a writer thread
    per connection.  Readers own their connection's decoder; writers
    own its socket for output; the only cross-connection state is the
    shard handle, a few atomic counters, and the trace ring (guarded —
    the ring is single-writer, so the server serializes emission).

    Graceful drain ({!stop}): stop admitting (new submits get a typed
    [Rejected_draining]), tell every client how many responses it is
    still owed ([Drain]), wait for in-flight work to resolve (bounded
    by [drain_timeout_s]), then close the shard — anything still
    queued resolves [Pool_closed] and flushes as typed [Closed]
    responses before the sockets come down. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

(** ["unix:PATH"], or a path with a ['/'] in it, → [Unix_path];
    ["host:port"] → [Tcp], and [":port"] is loopback; a port is decimal
    digits below 65536.  Anything else, such as a bare word or a bare
    port, is [None]: a mistyped address is refused, not served on a
    socket file in the working directory. *)
let addr_of_string (s : string) : addr option =
  if String.starts_with ~prefix:"unix:" s then
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then None else Some (Unix_path path)
  else if String.contains s '/' then Some (Unix_path s)
  else
    match String.index_opt s ':' with
    | None -> None
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        (* [int_of_string] also reads "+80", "0x1F41" and "1_000" *)
        match int_of_string_opt port with
        | Some n
          when String.for_all (fun c -> c >= '0' && c <= '9') port && n < 65536 ->
            Some (Tcp { host = (if host = "" then "127.0.0.1" else host); port = n })
        | _ -> None)

(** Raised for a TCP host that is neither an IP literal nor a name the
    resolver knows. *)
exception Unresolved of string

(** [sockaddr addr] is the socket address [addr] names, for the server
    and the client alike.  A host that does not resolve raises
    {!Unresolved}: there is no fallback address. *)
let sockaddr (addr : addr) : Unix.sockaddr =
  match addr with
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } ->
      let inet =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { h_addr_list = [||]; _ } | (exception Not_found) ->
                raise (Unresolved host)
            | h -> h.h_addr_list.(0))
      in
      Unix.ADDR_INET (inet, port)

(** [no_delay sa fd] makes each write on a TCP socket leave at once:
    it sets TCP_NODELAY, so Nagle's algorithm no longer holds a small
    frame until the peer acknowledges the previous segment.  A
    Unix-domain socket has no such delay and is left as it is.  The
    server calls it on every connection it accepts, the client on the
    socket it dials. *)
let no_delay (sa : Unix.sockaddr) (fd : Unix.file_descr) : unit =
  match sa with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix.ADDR_UNIX _ -> ()

(* [f ()], closing [fd] first if it raises *)
let closing_on_error (fd : Unix.file_descr) (f : unit -> 'a) : 'a =
  match f () with
  | v -> v
  | exception e ->
      Unix.close fd;
      raise e

(** Frames in both directions are bounded by {!Wire.default_max_frame}. *)
type config = {
  shard : Shard.config;
  drain_timeout_s : float;
      (** bound on the in-flight drain in {!stop}.  No caller sets it;
          it stays until the benchmark stops writing the other two
          fields as [{ default_config with ... }], which a two-field
          record turns into a useless [with] (warning 23, an error in
          dune's dev profile; ROADMAP item 1) *)
  tracer : Obs.Trace.t option;  (** net events land on a "net" track *)
}

let default_config =
  { shard = Shard.default_config; drain_timeout_s = 30.; tracer = None }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  peer : string;
  out_m : Mutex.t;
  out_cv : Condition.t;
  mutable out_q : string list;  (** newest first *)
  mutable out_stop : bool;  (** writer: flush what's queued, then exit *)
  mutable closed : bool;  (** fd has been shut down *)
  tickets : (int, Shard.ticket) Hashtbl.t;
      (** client ticket → shard ticket, for [Cancel], while the
          ticket is in flight; guarded by [out_m] *)
  mutable outstanding : int;  (** admitted, response not yet queued;
                                  guarded by [out_m] *)
  mutable reader : Thread.t option;
  mutable writer : Thread.t option;
}

type stats = {
  conns : int;  (** connections accepted over the server's lifetime *)
  frames_rx : int;
  frames_tx : int;
  skipped : int;  (** malformed frames skipped across all decoders *)
  dead_conns : int;  (** connections dropped for framing loss *)
  submits : int;
  responses : int;
  shard : Shard.stats;
}

type t = {
  cfg : config;
  shard : Shard.t;
  listen_fd : Unix.file_descr;
  addr : addr;  (** actual bound address (TCP port resolved) *)
  m : Mutex.t;  (** guards [conns] *)
  mutable conns : conn list;
  mutable next_cid : int;
  mutable draining : bool;
  stop_flag : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  outstanding : int Atomic.t;  (** in-flight across all connections *)
  (* counters *)
  conns_total : int Atomic.t;
  frames_rx : int Atomic.t;
  frames_tx : int Atomic.t;
  skipped : int Atomic.t;
  dead_conns : int Atomic.t;
  submits : int Atomic.t;
  responses : int Atomic.t;
  (* tracing: the ring is single-writer; [ring_m] makes the server's
     many threads one logical writer *)
  ring : Obs.Ring.t option;
  ring_m : Mutex.t;
}

let emit (t : t) (e : Obs.Event.t) : unit =
  match (t.ring, t.cfg.tracer) with
  | Some ring, Some tr ->
      Mutex.lock t.ring_m;
      Obs.Trace.emit tr ring e;
      Mutex.unlock t.ring_m
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-connection output. *)

let enqueue (t : t) (c : conn) (f : Wire.frame) : unit =
  let s = Wire.encode f in
  Mutex.lock c.out_m;
  let live = not c.out_stop && not c.closed in
  if live then begin
    c.out_q <- s :: c.out_q;
    Condition.signal c.out_cv
  end;
  Mutex.unlock c.out_m;
  if live then begin
    Atomic.incr t.frames_tx;
    emit t (Obs.Event.Frame { rx = false; kind = Wire.tag_of f; bytes = String.length s })
  end

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let writer_loop (_t : t) (c : conn) : unit =
  let rec loop () =
    Mutex.lock c.out_m;
    while c.out_q = [] && not c.out_stop do
      Condition.wait c.out_cv c.out_m
    done;
    let batch = List.rev c.out_q in
    c.out_q <- [];
    let stop = c.out_stop in
    Mutex.unlock c.out_m;
    (match batch with
    | [] -> ()
    | _ -> ( try List.iter (write_all c.fd) batch with _ -> ()));
    if not stop then loop ()
  in
  (try loop () with _ -> ())

(* Shut the socket down (idempotent); the reader unblocks on EOF and
   the writer is told to flush and exit. *)
let hang_up (t : t) (c : conn) : unit =
  Mutex.lock c.out_m;
  let first = not c.closed in
  c.closed <- true;
  c.out_stop <- true;
  Condition.broadcast c.out_cv;
  Mutex.unlock c.out_m;
  if first then begin
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
    emit t (Obs.Event.Conn { up = false })
  end

(* ------------------------------------------------------------------ *)
(* Request handling. *)

let status_of_error : Serve.Pool.error -> Wire.status * string = function
  | Serve.Pool.Rejected `Queue_full -> (Wire.Rejected_full, "")
  | Serve.Pool.Rejected `Shedding -> (Wire.Rejected_shed, "")
  | Serve.Pool.Pool_closed -> (Wire.Closed, "")
  | Serve.Pool.Cancelled r -> (Wire.Cancelled r, "")
  | Serve.Pool.Timed_out -> (Wire.Failed, "await timed out")
  | Serve.Pool.Delivered -> (Wire.Failed, "already delivered")
  | Serve.Pool.Failed e -> (Wire.Failed, Printexc.to_string e)

let response_of (ticket : int)
    (res : (Serve.Pool.completion, Serve.Pool.error) result) : Wire.frame =
  match res with
  | Ok { outcome; sojourn_s; met_deadline } ->
      let sojourn_us = int_of_float (sojourn_s *. 1e6) in
      let value, info =
        match outcome with
        | Serve.Pool.Checksum c -> (c, "")
        | Serve.Pool.Tpal_result (Ok task) ->
            (0, Fmt.str "%a" Tpal.Task.pp task)
        | Serve.Pool.Tpal_result (Error e) ->
            (0, Fmt.str "stuck: %a" Tpal.Machine_error.pp e)
      in
      Wire.Response
        { ticket; status = Wire.Done { met = met_deadline }; value; sojourn_us; info }
  | Error e ->
      let status, info = status_of_error e in
      Wire.Response { ticket; status; value = 0; sojourn_us = 0; info }

(* A peer's request must not make the server allocate without bound: a
   [Synth] is at most 2^24 slots (128 MiB), and a [Kernel] runs at scale
   32 at most, where the largest inputs, plus_reduce's and mergesort's,
   are about 100 MB. *)
let max_kernel_scale = 32

let work_of_payload (p : Wire.payload) : (Serve.Pool.work, string) result =
  match p with
  | Wire.Synth { n } ->
      if n < 0 || n > 1 lsl 24 then Error "synth size out of range"
      else Ok (Serve.Pool.Thunk (Serve.Load.kernel n))
  | Wire.Kernel { scale; _ } when scale > max_kernel_scale ->
      Error "kernel scale out of range"
  | Wire.Kernel { name; scale } -> (
      match Workloads.Real_bench.find name with
      | Some bench -> Ok (Serve.Pool.Kernel { bench; scale = max 1 scale })
      | None -> Error (Printf.sprintf "unknown kernel %S" name))
  | Wire.Prog { src } -> (
      match Tpal.Parser.parse_result src with
      | Ok prog ->
          Ok (Serve.Pool.Tpal { prog; options = Tpal.Eval.default_options })
      | Error msg -> Error ("parse: " ^ msg))

let handle_submit (t : t) (c : conn) ~(ticket : int) ~(tenant : string)
    ~(deadline_us : int) ~(size : int) (payload : Wire.payload) : unit =
  Atomic.incr t.submits;
  if t.draining then
    enqueue t c
      (Wire.Response
         { ticket; status = Wire.Rejected_draining; value = 0; sojourn_us = 0; info = "" })
  else
    match work_of_payload payload with
    | Error info ->
        enqueue t c
          (Wire.Response
             { ticket; status = Wire.Failed; value = 0; sojourn_us = 0; info })
    | Ok work -> (
        let deadline_s =
          if deadline_us <= 0 then None else Some (float_of_int deadline_us /. 1e6)
        in
        Mutex.lock c.out_m;
        c.outstanding <- c.outstanding + 1;
        Mutex.unlock c.out_m;
        Atomic.incr t.outstanding;
        (* the hook may run before [Shard.submit] returns; [resolved]
           keeps a finished ticket out of [c.tickets] *)
        let resolved = ref false in
        let resolve res =
          Atomic.incr t.responses;
          Mutex.lock c.out_m;
          c.outstanding <- c.outstanding - 1;
          resolved := true;
          Hashtbl.remove c.tickets ticket;
          Mutex.unlock c.out_m;
          Atomic.decr t.outstanding;
          enqueue t c (response_of ticket res)
        in
        match
          Shard.submit t.shard ~tenant ?deadline_s ~size:(max 1 size)
            ~on_resolve:resolve work
        with
        | Ok st ->
            Mutex.lock c.out_m;
            if not !resolved then Hashtbl.replace c.tickets ticket st;
            Mutex.unlock c.out_m
        | Error e -> resolve (Error e))

let metrics_body (t : t) : string =
  let s = Shard.stats t.shard in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "policy %s\nsubmitted %d\n" s.policy s.submitted);
  Array.iteri
    (fun i (ss : Shard.shard_stats) ->
      Buffer.add_string b
        (Printf.sprintf "shard %d: routed %d depth %d submitted %d served %d\n"
           i ss.routed ss.depth ss.pool.submitted ss.pool.served))
    s.per_shard;
  Buffer.contents b

let handle_frame (t : t) (c : conn) (f : Wire.frame) : unit =
  match f with
  | Wire.Hello { client = _ } ->
      enqueue t c (Wire.Hello_ok { shards = Shard.shard_count t.shard })
  | Wire.Submit { ticket; tenant; deadline_us; size; payload } ->
      handle_submit t c ~ticket ~tenant ~deadline_us ~size payload
  | Wire.Cancel { ticket } -> (
      Mutex.lock c.out_m;
      let st = Hashtbl.find_opt c.tickets ticket in
      Mutex.unlock c.out_m;
      match st with
      | Some st -> ignore (Shard.cancel t.shard st : bool)
      | None -> ())
  | Wire.Metrics_request -> enqueue t c (Wire.Metrics { body = metrics_body t })
  | Wire.Bye -> ()  (* client will close after collecting its responses *)
  | Wire.Hello_ok _ | Wire.Response _ | Wire.Metrics _ | Wire.Drain _ ->
      ()  (* server-to-client frames arriving here are ignored noise *)

let reader_loop (t : t) (c : conn) : unit =
  let dec = Wire.Decoder.create () in
  let buf = Bytes.create 65536 in
  let rec drain_frames () =
    match Wire.Decoder.next dec with
    | `Frame f ->
        Atomic.incr t.frames_rx;
        emit t (Obs.Event.Frame { rx = true; kind = Wire.tag_of f; bytes = 0 });
        handle_frame t c f;
        drain_frames ()
    | `Skip _ ->
        Atomic.incr t.skipped;
        drain_frames ()
    | `Await -> true
    | `Dead _ ->
        Atomic.incr t.dead_conns;
        false
  in
  let rec loop () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Wire.Decoder.feed dec buf 0 n;
        if drain_frames () then loop ()
    | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> loop ()
    | exception _ -> ()
  in
  loop ();
  hang_up t c;
  Mutex.lock t.m;
  t.conns <- List.filter (fun c' -> c'.cid <> c.cid) t.conns;
  Mutex.unlock t.m

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle. *)

(* [Unix.accept], the connection set {!no_delay}; a failure keeps no
   socket *)
let accept (listen_fd : Unix.file_descr) : Unix.file_descr * Unix.sockaddr =
  let fd, peer_sa = Unix.accept listen_fd in
  closing_on_error fd (fun () -> no_delay peer_sa fd);
  (fd, peer_sa)

let accept_loop (t : t) : unit =
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ when Atomic.get t.stop_flag -> ()
    | _ :: _, _, _ -> (
        match accept t.listen_fd with
        | exception _ -> ()
        | fd, peer_sa ->
            let peer =
              match peer_sa with
              | Unix.ADDR_UNIX p -> "unix:" ^ p
              | Unix.ADDR_INET (h, p) ->
                  Printf.sprintf "%s:%d" (Unix.string_of_inet_addr h) p
            in
            Mutex.lock t.m;
            let cid = t.next_cid in
            t.next_cid <- cid + 1;
            let c =
              {
                cid;
                fd;
                peer;
                out_m = Mutex.create ();
                out_cv = Condition.create ();
                out_q = [];
                out_stop = false;
                closed = false;
                tickets = Hashtbl.create 64;
                outstanding = 0;
                reader = None;
                writer = None;
              }
            in
            t.conns <- c :: t.conns;
            Mutex.unlock t.m;
            Atomic.incr t.conns_total;
            emit t (Obs.Event.Conn { up = true });
            c.writer <- Some (Thread.create (writer_loop t) c);
            c.reader <- Some (Thread.create (reader_loop t) c))
    | exception _ -> ()
  done

(** [create ?config addr ()] binds and listens on [addr] (a Unix path
    is unlinked first; TCP port 0 picks a free port — read the real
    one back with {!bound_addr}), boots the shard fabric, and starts
    accepting.  An unresolvable host raises {!Unresolved}; a failed
    [bind], [listen] or shard boot re-raises and keeps no socket.
    Ignores SIGPIPE process-wide: a write to a peer that has hung up
    must fail with EPIPE on that connection, not kill the process. *)
let create ?(config = default_config) (addr : addr) () : t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sa = sockaddr addr in
  let listen_fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  let bound =
    closing_on_error listen_fd @@ fun () ->
    (match addr with
    | Unix_path p -> ( try Unix.unlink p with _ -> ())
    | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
    Unix.bind listen_fd sa;
    Unix.listen listen_fd 64;
    match (addr, Unix.getsockname listen_fd) with
    | Tcp { host; _ }, Unix.ADDR_INET (_, port) -> Tcp { host; port }
    | _ -> addr
  in
  (* thread the server's trace emission through the shard layer's
     route hook; the forward ref breaks the creation cycle (the shard
     exists before the server record does) *)
  let emit_ref = ref (fun (_ : Obs.Event.t) -> ()) in
  let shard_cfg =
    {
      config.shard with
      Shard.on_route =
        Some (fun ~shard ~size -> !emit_ref (Obs.Event.Route { shard; size }));
    }
  in
  let shard = closing_on_error listen_fd (Shard.create ~config:shard_cfg) in
  let t =
    {
      cfg = config;
      shard;
      listen_fd;
      addr = bound;
      m = Mutex.create ();
      conns = [];
      next_cid = 0;
      draining = false;
      stop_flag = Atomic.make false;
      accept_thread = None;
      outstanding = Atomic.make 0;
      conns_total = Atomic.make 0;
      frames_rx = Atomic.make 0;
      frames_tx = Atomic.make 0;
      skipped = Atomic.make 0;
      dead_conns = Atomic.make 0;
      submits = Atomic.make 0;
      responses = Atomic.make 0;
      ring = Option.map (fun tr -> Obs.Trace.track tr "net") config.tracer;
      ring_m = Mutex.create ();
    }
  in
  emit_ref := emit t;
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let bound_addr (t : t) : addr = t.addr

let stats_now (t : t) : stats =
  {
    conns = Atomic.get t.conns_total;
    frames_rx = Atomic.get t.frames_rx;
    frames_tx = Atomic.get t.frames_tx;
    skipped = Atomic.get t.skipped;
    dead_conns = Atomic.get t.dead_conns;
    submits = Atomic.get t.submits;
    responses = Atomic.get t.responses;
    shard = Shard.stats t.shard;
  }

(** [stop t] is the graceful drain: refuse new submits (typed
    [Rejected_draining]), notify clients ([Drain] with the responses
    still owed on that connection), wait — bounded — for in-flight
    work, close the shard (queued work flushes as typed [Closed]
    responses), flush writers, drop sockets, and return final
    statistics.  Idempotent enough for a signal handler path: a second
    call finds everything closed and just reports. *)
let stop (t : t) : stats =
  t.draining <- true;
  emit t (Obs.Event.Drain { pending = Atomic.get t.outstanding });
  Mutex.lock t.m;
  let conns = t.conns in
  Mutex.unlock t.m;
  List.iter
    (fun c ->
      Mutex.lock c.out_m;
      let pending = c.outstanding in
      Mutex.unlock c.out_m;
      enqueue t c (Wire.Drain { pending }))
    conns;
  (* bounded in-flight drain *)
  let deadline = Mclock.now_s () +. t.cfg.drain_timeout_s in
  while Atomic.get t.outstanding > 0 && Mclock.now_s () < deadline do
    Thread.delay 0.005
  done;
  (* stop accepting *)
  Atomic.set t.stop_flag true;
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  (try Unix.close t.listen_fd with _ -> ());
  (match t.addr with
  | Unix_path p -> ( try Unix.unlink p with _ -> ())
  | Tcp _ -> ());
  (* close the fabric: queued work resolves typed and the resolution
     hooks enqueue the final responses before writers flush *)
  let shard_stats = Shard.close t.shard in
  (* flush and drop every connection *)
  Mutex.lock t.m;
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.m;
  List.iter
    (fun c ->
      Mutex.lock c.out_m;
      c.out_stop <- true;
      Condition.broadcast c.out_cv;
      Mutex.unlock c.out_m;
      Option.iter Thread.join c.writer;
      hang_up t c;
      (try Unix.close c.fd with _ -> ());
      Option.iter Thread.join c.reader)
    conns;
  { (stats_now t) with shard = shard_stats }
