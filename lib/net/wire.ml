(** The serving fabric's wire protocol: a versioned, length-prefixed
    binary framing, pure on both sides — {!encode} is a function to
    [string], {!Decoder} is a resumable push parser over byte chunks —
    so the whole codec is unit-testable without a socket in sight.

    Frame layout (all integers big-endian):

    {v
      +--------+---------+-----+----------------+
      | u32 len| u8 vers | u8 tag | body ...    |
      +--------+---------+-----+----------------+
    v}

    [len] counts everything after the length word (version byte, tag
    byte, body).  Design points, each pinned by a test in
    {!Suite_net}:

    - {b Partial reads}: the decoder buffers arbitrary chunk
      boundaries — a frame split at any byte position decodes
      identically to one delivered whole ([`Await] until complete).
    - {b Resync}: a frame whose {e body} is malformed (bad tag,
      truncated field, version mismatch) is consumed in full — the
      length prefix tells us where it ends — and reported as a typed
      [`Skip]; the stream stays decodable from the next frame on.
    - {b Oversized frames}: a length above [max_frame] means either a
      hostile peer or lost framing; there is no trustworthy resync
      point, so the decoder latches [`Dead] and the connection must be
      dropped.
    - {b Version mismatch}: a typed [Bad_version] skip, never an
      exception escape — old clients get a clean refusal, not a
      crash. *)

let version = 1

let default_max_frame = 1 lsl 20
(** 1 MiB: comfortably above any control frame; a [Prog] submission
    carrying a larger program than this is refused at encode time. *)

(** What a [Submit] asks the fabric to run. *)
type payload =
  | Synth of { n : int }
      (** the synthetic fill-and-fold kernel over [n] slots
          ({!Serve.Load.kernel}) — the load generator's workhorse; its
          checksum is a pure function of [n], so the client can audit
          the response *)
  | Kernel of { name : string; scale : int }
      (** a {!Workloads.Real_bench} registry kernel *)
  | Prog of { src : string }  (** TPAL program source, parsed server-side *)

(** Terminal status of a request, mirrored from {!Serve.Pool.error}
    plus the fabric's own refusals. *)
type status =
  | Done of { met : bool }  (** completed; [met] = within its deadline *)
  | Rejected_full  (** admission cap backpressure *)
  | Rejected_shed  (** degraded-mode shedding *)
  | Rejected_draining  (** server is shutting down gracefully *)
  | Cancelled of [ `Explicit | `Deadline | `Lease ]
  | Failed  (** request raised / machine stuck; detail in [info] *)
  | Closed  (** pool closed while the request was queued *)

type frame =
  | Hello of { client : string }
      (** first frame on a connection; [client] is a free-form id *)
  | Hello_ok of { shards : int }
      (** server accepts; advertises its shard count *)
  | Submit of {
      ticket : int;  (** client-chosen id, echoed on the response *)
      tenant : string;
      deadline_us : int;  (** relative deadline; 0 = server default *)
      size : int;  (** DRR service-size estimate, >= 1 *)
      payload : payload;
    }
  | Cancel of { ticket : int }
  | Response of {
      ticket : int;
      status : status;
      value : int;  (** checksum for [Done] on Synth/Kernel *)
      sojourn_us : int;  (** server-side admission -> completion *)
      info : string;  (** error detail / auxiliary text *)
    }
  | Metrics_request
  | Metrics of { body : string }
  | Drain of { pending : int }
      (** server notice: draining has begun; [pending] responses are
          still owed on this connection *)
  | Bye  (** client is done submitting; server may close after flush *)

type error =
  | Oversized of { len : int; max : int }
  | Bad_version of { got : int }
  | Bad_tag of { tag : int }
  | Bad_body of { tag : int; reason : string }

let pp_error ppf = function
  | Oversized { len; max } -> Fmt.pf ppf "oversized frame (%d > max %d)" len max
  | Bad_version { got } ->
      Fmt.pf ppf "protocol version mismatch (got %d, want %d)" got version
  | Bad_tag { tag } -> Fmt.pf ppf "unknown frame tag %d" tag
  | Bad_body { tag; reason } -> Fmt.pf ppf "malformed frame (tag %d): %s" tag reason

(* ------------------------------------------------------------------ *)
(* Encoding. *)

let tag_of : frame -> int = function
  | Hello _ -> 1
  | Hello_ok _ -> 2
  | Submit _ -> 3
  | Cancel _ -> 4
  | Response _ -> 5
  | Metrics_request -> 6
  | Metrics _ -> 7
  | Drain _ -> 8
  | Bye -> 9

let status_code : status -> int = function
  | Done { met = true } -> 0
  | Done { met = false } -> 1
  | Rejected_full -> 2
  | Rejected_shed -> 3
  | Rejected_draining -> 4
  | Cancelled `Explicit -> 5
  | Cancelled `Deadline -> 6
  | Cancelled `Lease -> 7
  | Failed -> 8
  | Closed -> 9

let status_of_code : int -> status option = function
  | 0 -> Some (Done { met = true })
  | 1 -> Some (Done { met = false })
  | 2 -> Some Rejected_full
  | 3 -> Some Rejected_shed
  | 4 -> Some Rejected_draining
  | 5 -> Some (Cancelled `Explicit)
  | 6 -> Some (Cancelled `Deadline)
  | 7 -> Some (Cancelled `Lease)
  | 8 -> Some Failed
  | 9 -> Some Closed
  | _ -> None

let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int (v land 0xFFFFFFFF))
let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

(* short string: u16 length (tenants, kernel names, client ids) *)
let put_str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Wire: string exceeds u16";
  put_u16 b (String.length s);
  Buffer.add_string b s

(* long string: u32 length (program sources, metrics bodies) *)
let put_str32 b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_payload b = function
  | Synth { n } ->
      put_u8 b 0;
      put_u32 b n
  | Kernel { name; scale } ->
      put_u8 b 1;
      put_str16 b name;
      put_u16 b scale
  | Prog { src } ->
      put_u8 b 2;
      put_str32 b src

(** [encode f] is the full wire image of [f], length prefix included.
    Raises [Invalid_argument] only on caller errors the protocol
    cannot represent (a string over its length field's range, a frame
    over [max_frame]). *)
let encode ?(max_frame = default_max_frame) (f : frame) : string =
  let b = Buffer.create 64 in
  put_u32 b 0;
  (* placeholder length *)
  put_u8 b version;
  put_u8 b (tag_of f);
  (match f with
  | Hello { client } -> put_str16 b client
  | Hello_ok { shards } -> put_u16 b shards
  | Submit { ticket; tenant; deadline_us; size; payload } ->
      put_u32 b ticket;
      put_str16 b tenant;
      put_u32 b deadline_us;
      put_u16 b size;
      put_payload b payload
  | Cancel { ticket } -> put_u32 b ticket
  | Response { ticket; status; value; sojourn_us; info } ->
      put_u32 b ticket;
      put_u8 b (status_code status);
      put_i64 b value;
      put_u32 b sojourn_us;
      put_str16 b info
  | Metrics_request -> ()
  | Metrics { body } -> put_str32 b body
  | Drain { pending } -> put_u32 b pending
  | Bye -> ());
  let s = Buffer.to_bytes b in
  let body_len = Bytes.length s - 4 in
  if body_len > max_frame then
    invalid_arg
      (Printf.sprintf "Wire.encode: frame body %d exceeds max_frame %d"
         body_len max_frame);
  Bytes.set_int32_be s 0 (Int32.of_int body_len);
  Bytes.unsafe_to_string s

(* ------------------------------------------------------------------ *)
(* Decoding: a resumable cursor over one frame body. *)

exception Short of string

module Cur = struct
  type t = { buf : Bytes.t; mutable pos : int; stop : int }

  let make buf pos len = { buf; pos; stop = pos + len }

  let need (c : t) (n : int) (what : string) =
    if c.pos + n > c.stop then raise (Short what)

  let u8 c what =
    need c 1 what;
    let v = Bytes.get_uint8 c.buf c.pos in
    c.pos <- c.pos + 1;
    v

  let u16 c what =
    need c 2 what;
    let v = Bytes.get_uint16_be c.buf c.pos in
    c.pos <- c.pos + 2;
    v

  let u32 c what =
    need c 4 what;
    let v = Int32.to_int (Bytes.get_int32_be c.buf c.pos) land 0xFFFFFFFF in
    c.pos <- c.pos + 4;
    v

  let i64 c what =
    need c 8 what;
    let v = Int64.to_int (Bytes.get_int64_be c.buf c.pos) in
    c.pos <- c.pos + 8;
    v

  let str16 c what =
    let n = u16 c what in
    need c n what;
    let s = Bytes.sub_string c.buf c.pos n in
    c.pos <- c.pos + n;
    s

  let str32 c what =
    let n = u32 c what in
    need c n what;
    let s = Bytes.sub_string c.buf c.pos n in
    c.pos <- c.pos + n;
    s

  let leftover c = c.stop - c.pos
end

let decode_body ~(tag : int) (c : Cur.t) : (frame, error) result =
  let frame =
    try
      match tag with
      | 1 -> Ok (Hello { client = Cur.str16 c "hello.client" })
      | 2 -> Ok (Hello_ok { shards = Cur.u16 c "hello_ok.shards" })
      | 3 ->
          let ticket = Cur.u32 c "submit.ticket" in
          let tenant = Cur.str16 c "submit.tenant" in
          let deadline_us = Cur.u32 c "submit.deadline" in
          let size = Cur.u16 c "submit.size" in
          let payload =
            match Cur.u8 c "submit.payload.kind" with
            | 0 -> Synth { n = Cur.u32 c "synth.n" }
            | 1 ->
                let name = Cur.str16 c "kernel.name" in
                let scale = Cur.u16 c "kernel.scale" in
                Kernel { name; scale }
            | 2 -> Prog { src = Cur.str32 c "prog.src" }
            | k -> raise (Short (Printf.sprintf "payload kind %d" k))
          in
          Ok (Submit { ticket; tenant; deadline_us; size; payload })
      | 4 -> Ok (Cancel { ticket = Cur.u32 c "cancel.ticket" })
      | 5 ->
          let ticket = Cur.u32 c "response.ticket" in
          let sc = Cur.u8 c "response.status" in
          let value = Cur.i64 c "response.value" in
          let sojourn_us = Cur.u32 c "response.sojourn" in
          let info = Cur.str16 c "response.info" in
          (match status_of_code sc with
          | Some status ->
              Ok (Response { ticket; status; value; sojourn_us; info })
          | None -> raise (Short (Printf.sprintf "status code %d" sc)))
      | 6 -> Ok Metrics_request
      | 7 -> Ok (Metrics { body = Cur.str32 c "metrics.body" })
      | 8 -> Ok (Drain { pending = Cur.u32 c "drain.pending" })
      | 9 -> Ok Bye
      | _ -> Error (Bad_tag { tag })
    with Short what -> Error (Bad_body { tag; reason = what })
  in
  match frame with
  | Ok _ when Cur.leftover c > 0 ->
      (* trailing garbage inside a framed body is a malformed frame,
         not an extension point — reject it loudly *)
      Error
        (Bad_body
           { tag; reason = Printf.sprintf "%d trailing bytes" (Cur.leftover c) })
  | r -> r

(* ------------------------------------------------------------------ *)

(** A resumable frame decoder: feed it byte chunks of any size, pull
    frames until [`Await].  Single-consumer; not thread-safe. *)
module Decoder = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (** first unconsumed byte *)
    mutable len : int;  (** buffered bytes from [start] *)
    max_frame : int;
    mutable dead : error option;
    mutable frames : int;  (** well-formed frames decoded *)
    mutable skipped : int;  (** malformed frames skipped *)
  }

  let create ?(max_frame = default_max_frame) () : t =
    {
      buf = Bytes.create 4096;
      start = 0;
      len = 0;
      max_frame;
      dead = None;
      frames = 0;
      skipped = 0;
    }

  let buffered (d : t) : int = d.len
  let frames (d : t) : int = d.frames
  let skipped (d : t) : int = d.skipped

  (* slide/grow so [n] more bytes fit after start+len *)
  let reserve (d : t) (n : int) : unit =
    let cap = Bytes.length d.buf in
    if d.start + d.len + n > cap then
      if d.len + n <= cap then begin
        Bytes.blit d.buf d.start d.buf 0 d.len;
        d.start <- 0
      end
      else begin
        let cap' = max (d.len + n) (2 * cap) in
        let nb = Bytes.create cap' in
        Bytes.blit d.buf d.start nb 0 d.len;
        d.buf <- nb;
        d.start <- 0
      end

  let feed (d : t) (src : Bytes.t) (off : int) (n : int) : unit =
    if n < 0 || off < 0 || off + n > Bytes.length src then
      invalid_arg "Wire.Decoder.feed: bad range";
    reserve d n;
    Bytes.blit src off d.buf (d.start + d.len) n;
    d.len <- d.len + n

  let feed_string (d : t) (s : string) : unit =
    feed d (Bytes.unsafe_of_string s) 0 (String.length s)

  (** [next d] pulls the next event from the buffered stream:
      [`Frame f] a well-formed frame; [`Skip e] a malformed frame,
      consumed and typed, stream continues; [`Await] need more bytes;
      [`Dead e] framing integrity is gone (oversized length) — the
      connection should be dropped.  [`Dead] latches. *)
  let next (d : t) : [ `Frame of frame | `Skip of error | `Await | `Dead of error ]
      =
    match d.dead with
    | Some e -> `Dead e
    | None ->
        if d.len < 4 then `Await
        else begin
          let body_len =
            Int32.to_int (Bytes.get_int32_be d.buf d.start) land 0xFFFFFFFF
          in
          if body_len > d.max_frame || body_len < 2 then begin
            let e = Oversized { len = body_len; max = d.max_frame } in
            d.dead <- Some e;
            `Dead e
          end
          else if d.len < 4 + body_len then `Await
          else begin
            let vers = Bytes.get_uint8 d.buf (d.start + 4) in
            let tag = Bytes.get_uint8 d.buf (d.start + 5) in
            let body = Cur.make d.buf (d.start + 6) (body_len - 2) in
            let consume () =
              d.start <- d.start + 4 + body_len;
              d.len <- d.len - 4 - body_len;
              if d.len = 0 then d.start <- 0
            in
            if vers <> version then begin
              consume ();
              d.skipped <- d.skipped + 1;
              `Skip (Bad_version { got = vers })
            end
            else begin
              let r = decode_body ~tag body in
              consume ();
              match r with
              | Ok f ->
                  d.frames <- d.frames + 1;
                  `Frame f
              | Error e ->
                  d.skipped <- d.skipped + 1;
                  `Skip e
            end
          end
        end
end
