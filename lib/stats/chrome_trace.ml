(** Chrome [trace_event] events as {!Json.t}, loadable in Perfetto
    ([https://ui.perfetto.dev]): producers map their timelines onto
    processes ([pid]), threads ([tid]) and µs timestamps, as complete
    spans, thread-scoped instants and process/thread-name metadata. *)

let event ~(ph : string) ~(cat : string) ~(name : string) ~(pid : int)
    ~(tid : int) ~(ts : float) (timing : (string * Json.t) list)
    (args : (string * Json.t) list) : Json.t =
  Json.Obj
    ([ ("ph", Json.Str ph); ("name", Json.Str name) ]
    @ (if cat = "" then [] else [ ("cat", Json.Str cat) ])
    @ [ ("pid", Json.Int pid); ("tid", Json.Int tid); ("ts", Json.Float ts) ]
    @ timing
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

(** A span of [dur] µs starting at [ts] µs. *)
let complete ?(cat = "") ?(args = []) ~(name : string) ~(pid : int)
    ~(tid : int) ~(ts : float) ~(dur : float) () : Json.t =
  event ~ph:"X" ~cat ~name ~pid ~tid ~ts [ ("dur", Json.Float dur) ] args

(** A thread-scoped instant at [ts] µs. *)
let instant ?(cat = "") ?(args = []) ~(name : string) ~(pid : int)
    ~(tid : int) ~(ts : float) () : Json.t =
  event ~ph:"i" ~cat ~name ~pid ~tid ~ts [ ("s", Json.Str "t") ] args

let thread_name ~(pid : int) ~(tid : int) (name : string) : Json.t =
  event ~ph:"M" ~cat:"" ~name:"thread_name" ~pid ~tid ~ts:0. []
    [ ("name", Json.Str name) ]

let process_name ~(pid : int) (name : string) : Json.t =
  event ~ph:"M" ~cat:"" ~name:"process_name" ~pid ~tid:0 ~ts:0. []
    [ ("name", Json.Str name) ]

(** [to_string events] renders a complete trace document:
    [{"traceEvents": [...], "displayTimeUnit": "ns"}], one event per
    line. *)
let to_string (events : Json.t list) : string =
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ns") ])
