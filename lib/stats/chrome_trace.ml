(** Chrome [trace_event]-format JSON emitter (the "JSON Array Format"
    of the Trace Event spec), loadable in [chrome://tracing] and
    Perfetto ([https://ui.perfetto.dev]).

    This module is generic: it knows nothing about any producer.  A
    trace is a list of {!event}s; producers map their own timelines
    onto processes ([pid]), threads ([tid]) and timestamps (µs, as the
    viewers expect).  Only the event phases the viewers actually render
    are supported: complete spans ([ph:"X"]), thread-scoped instants
    ([ph:"i"]) and the metadata records that name processes and
    threads ([ph:"M"]). *)

type arg = Int of int | Float of float | Str of string

type event = {
  ph : string;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  ts : float;  (** microseconds *)
  dur : float option;  (** microseconds; complete events only *)
  scope : string option;  (** instant events: "t" = thread *)
  args : (string * arg) list;
}

let complete ?(cat = "") ?(args = []) ~(name : string) ~(pid : int)
    ~(tid : int) ~(ts : float) ~(dur : float) () : event =
  { ph = "X"; name; cat; pid; tid; ts; dur = Some dur; scope = None; args }

let instant ?(cat = "") ?(args = []) ~(name : string) ~(pid : int)
    ~(tid : int) ~(ts : float) () : event =
  { ph = "i"; name; cat; pid; tid; ts; dur = None; scope = Some "t"; args }

let thread_name ~(pid : int) ~(tid : int) (name : string) : event =
  { ph = "M"; name = "thread_name"; cat = ""; pid; tid; ts = 0.; dur = None;
    scope = None; args = [ ("name", Str name) ] }

let process_name ~(pid : int) (name : string) : event =
  { ph = "M"; name = "process_name"; cat = ""; pid; tid = 0; ts = 0.;
    dur = None; scope = None; args = [ ("name", Str name) ] }

(* JSON string escaping: quotes, backslashes, and control characters
   (the spec is plain JSON, so U+0000–U+001F must be \u-escaped). *)
let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers: no NaN/infinity; clamp to 0 rather than emit invalid
   output. *)
let number (x : float) : string =
  if Float.is_nan x || Float.abs x = infinity then "0"
  else Printf.sprintf "%.3f" x

let arg_to_json = function
  | Int n -> string_of_int n
  | Float x -> number x
  | Str s -> "\"" ^ escape s ^ "\""

let event_to_json (e : event) : string =
  let buf = Buffer.create 128 in
  let field k v = Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" k v) in
  Buffer.add_string buf (Printf.sprintf "{\"ph\":\"%s\"" (escape e.ph));
  field "name" ("\"" ^ escape e.name ^ "\"");
  if e.cat <> "" then field "cat" ("\"" ^ escape e.cat ^ "\"");
  field "pid" (string_of_int e.pid);
  field "tid" (string_of_int e.tid);
  field "ts" (number e.ts);
  Option.iter (fun d -> field "dur" (number d)) e.dur;
  Option.iter (fun s -> field "s" ("\"" ^ escape s ^ "\"")) e.scope;
  if e.args <> [] then
    field "args"
      ("{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":%s" (escape k) (arg_to_json v))
             e.args)
      ^ "}");
  Buffer.add_char buf '}';
  Buffer.contents buf

(** [to_string events] renders a complete trace document:
    [{"traceEvents":[...]}]. *)
let to_string (events : event list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (event_to_json e))
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf
