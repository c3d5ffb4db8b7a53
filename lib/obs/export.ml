(** Chrome [trace_event] export of a real-runtime {!Trace} — the same
    format, category vocabulary and event names as
    {!Sim.Sim_trace.to_chrome}, so a real 4-domain run and a simulated
    run of the same kernel sit side by side in Perfetto as two
    processes: spans for task executions and idle naps, thread-scoped
    instants for beats ("heartbeat"), steals ("steal"), promotions
    ("promotion"), join suspend/resume ("join") and scheduler noise
    ("scheduler"); serving-layer decisions get their own "serve"
    category on the pool's track, and [Gc_census] spans a "gc"
    category on one track per runtime ring. *)

module C = Stats.Chrome_trace
module J = Stats.Json

let us_of_ns (ns : int) : float = float_of_int ns /. 1e3

let outcome_str = function
  | `Met -> "met"
  | `Missed -> "missed"
  | `Failed -> "failed"
  | `Cancelled -> "cancelled"

(** [to_chrome tr] — one thread per track under process [pid]. *)
let to_chrome ?(pid = 0) ?(process = "tpal-par") (tr : Trace.t) :
    J.t list =
  let tracks = Trace.events tr in
  let meta =
    C.process_name ~pid process
    :: List.mapi (fun tid (name, _) -> C.thread_name ~pid ~tid name) tracks
  in
  let out = ref [] in
  let push e = out := e :: !out in
  List.iteri
    (fun tid (_, events) ->
      (* open Task_start spans awaiting their finish, innermost first *)
      let open_tasks = ref [] in
      let last_ts = ref 0 in
      let close_task ~(at_ns : int) =
        match !open_tasks with
        | [] -> ()
        | (t0, region) :: rest ->
            open_tasks := rest;
            push
              (C.complete ~cat:"task"
                 ~args:[ ("region", J.Str (Trace.label tr region)) ]
                 ~name:(Trace.label tr region) ~pid ~tid ~ts:(us_of_ns t0)
                 ~dur:(us_of_ns (max 0 (at_ns - t0)))
                 ())
      in
      List.iter
        (fun (at_ns, e) ->
          last_ts := max !last_ts at_ns;
          let ts = us_of_ns at_ns in
          let instant ?(cat = "scheduler") ?(args = []) name =
            push (C.instant ~cat ~args ~name ~pid ~tid ~ts ())
          in
          match (e : Event.t) with
          | Task_start { region } -> open_tasks := (at_ns, region) :: !open_tasks
          | Task_finish _ -> close_task ~at_ns
          | Nap { ns } ->
              (* the nap is recorded as it ends; place the span where
                 the sleep actually was *)
              push
                (C.complete ~cat:"scheduler" ~name:"nap" ~pid ~tid
                   ~ts:(us_of_ns (max 0 (at_ns - ns)))
                   ~dur:(us_of_ns ns) ())
          | Beat -> instant ~cat:"heartbeat" "beat"
          | Promote { kind } ->
              instant ~cat:"promotion"
                ~args:
                  [ ("kind", J.Str (match kind with `Loop -> "loop" | `Branch -> "branch")) ]
                "promote"
          | Steal { ok; victim } ->
              instant ~cat:"steal"
                ~args:[ ("victim", J.Int victim) ]
                (if ok then "steal" else "steal-attempt")
          | Join_suspend -> instant ~cat:"join" "join-block"
          | Join_resume -> instant ~cat:"join" "join-resume"
          | Admit { tenant } ->
              instant ~cat:"serve"
                ~args:[ ("tenant", J.Str (Trace.label tr tenant)) ]
                "admit"
          | Reject { shed } ->
              instant ~cat:"serve" (if shed then "shed" else "reject")
          | Dispatch { tenant; urgency } ->
              instant ~cat:"serve"
                ~args:
                  [ ("tenant", J.Str (Trace.label tr tenant));
                    ("urgency", J.Int urgency) ]
                "dispatch"
          | Complete { tenant; outcome; sojourn_ns } ->
              instant ~cat:"serve"
                ~args:
                  [ ("tenant", J.Str (Trace.label tr tenant));
                    ("outcome", J.Str (outcome_str outcome));
                    ("sojourn_ms", J.Float (float_of_int sojourn_ns /. 1e6)) ]
                "complete"
          | Degraded { on } ->
              instant ~cat:"serve" (if on then "degraded" else "recovered")
          | Chaos { arg; _ } as e ->
              instant ~cat:"chaos" ~args:[ ("arg", J.Int arg) ] (Event.name e)
          | Cancel _ as e -> instant ~cat:"cancel" (Event.name e)
          | Retry { tenant; attempt } ->
              instant ~cat:"serve"
                ~args:
                  [ ("tenant", J.Str (Trace.label tr tenant));
                    ("attempt", J.Int attempt) ]
                "retry"
          | Restart { attempt } ->
              instant ~cat:"serve"
                ~args:[ ("attempt", J.Int attempt) ]
                "restart"
          | Conn { up } -> instant ~cat:"net" (if up then "conn-open" else "conn-close")
          | Frame { rx; kind; bytes } ->
              instant ~cat:"net"
                ~args:[ ("tag", J.Int kind); ("bytes", J.Int bytes) ]
                (if rx then "frame-rx" else "frame-tx")
          | Route { shard; size } ->
              instant ~cat:"net"
                ~args:[ ("shard", J.Int shard); ("size", J.Int size) ]
                "route"
          | Drain { pending } ->
              instant ~cat:"net"
                ~args:[ ("pending", J.Int pending) ]
                "drain"
          | Gc { inner; ns; _ } ->
              (* recorded as the interval ends, like a nap *)
              push
                (C.complete ~cat:"gc" ~name:(Event.name e)
                   ~args:
                     [ ( "inner",
                         J.Str
                           (String.concat "," (List.map Event.gc_phase_name inner))
                       ) ]
                   ~pid ~tid
                   ~ts:(us_of_ns (max 0 (at_ns - ns)))
                   ~dur:(us_of_ns ns) ()))
        events;
      (* tasks still open when the trace ended (or whose finish was
         dropped): close them at the last timestamp seen *)
      while !open_tasks <> [] do
        close_task ~at_ns:!last_ts
      done)
    tracks;
  (* drop accounting is part of the trace: one instant per lossy track *)
  List.iteri
    (fun tid (_, ring) ->
      let d = Ring.dropped ring in
      if d > 0 then
        push
          (C.instant ~cat:"scheduler"
             ~args:[ ("dropped", J.Int d) ]
             ~name:"ring-dropped" ~pid ~tid ~ts:0. ()))
    (Trace.tracks tr);
  meta @ List.rev !out

let to_chrome_string ?pid ?process (tr : Trace.t) : string =
  C.to_string (to_chrome ?pid ?process tr)

(** Several sessions in one document, each as its own named process —
    how [bench --par-bench --trace] lays one traced run per kernel
    side by side. *)
let many_to_chrome_string (traces : (string * Trace.t) list) : string =
  C.to_string
    (List.concat
       (List.mapi
          (fun pid (process, tr) -> to_chrome ~pid ~process tr)
          traces))
