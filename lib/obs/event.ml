(** The unified trace vocabulary of the production side: everything a
    {!Par.Runtime} worker or the {!Serve.Pool} dispatcher can drop into
    a {!Ring}, with a fixed integer codec so a ring slot is four plain
    ints ([code; t_ns; a; b]).

    Runtime events are what a worker records on its own ring as it
    schedules; serve events cover the admission / DRR–EDF dispatch /
    completion / degradation decisions of {!Serve.Pool}.  Region and
    tenant identifiers are {!Labels}-interned ints — resolve them
    through the owning {!Trace.t}.  {!Gc} spans come from the
    runtime's own event rings, read by the [gc_census] library. *)

(** The garbage-collector phases [Gc_census] follows: leading or
    joining a stop-the-world section, a minor collection, a major
    slice. *)
type gc_phase = [ `Stw_leader | `Stw_handler | `Minor | `Major_slice ]

type t =
  | Beat  (** a heartbeat observed at a promotion-ready poll *)
  | Promote of { kind : [ `Loop | `Branch ] }
  | Steal of { ok : bool; victim : int }
      (** one steal probe; failed probes are recorded only for the
          first sweep of an idle drought, whose {!Nap}s cover the
          rest *)
  | Join_suspend
  | Join_resume
  | Task_start of { region : int }
  | Task_finish of { region : int }
  | Nap of { ns : int }  (** an idle-backoff sleep that just ended *)
  | Admit of { tenant : int }
  | Reject of { shed : bool }
      (** admission refused: queue bound ([shed = false]) or
          degradation shedding ([shed = true]) *)
  | Dispatch of { tenant : int; urgency : int }
      (** the DRR/EDF scheduler picked this tenant's head request;
          [urgency] is the deadline-driven promotion hint installed *)
  | Complete of {
      tenant : int;
      outcome : [ `Met | `Missed | `Failed | `Cancelled ];
      sojourn_ns : int;
    }
  | Degraded of { on : bool }  (** watchdog entered / left degradation *)
  | Chaos of { kind : [ `Stall | `Slow | `Drop | `Raise ]; arg : int }
      (** an injected fault fired at a beat boundary; [arg] is the
          kind-specific magnitude (beats stalled / slowed / dropped) *)
  | Cancel of { reason : [ `Explicit | `Deadline | `Lease ] }
      (** a cancel token was set (pool side) or observed at a poll
          (runtime side) *)
  | Restart of { attempt : int }
      (** the pool warm-restarted its runtime session *)
  | Conn of { up : bool }
      (** a {!Net.Server} client connection opened ([up]) or closed *)
  | Frame of { rx : bool; kind : int; bytes : int }
      (** one wire frame crossed a connection; [kind] is the frame's
          wire tag, [rx] its direction (received vs sent) *)
  | Route of { shard : int; size : int }
      (** the {!Net.Router} placed a request on [shard] *)
  | Drain of { pending : int }
      (** graceful shutdown began with [pending] requests in flight *)
  | Gc of { phase : gc_phase; inner : gc_phase list; ns : int }
      (** a garbage-collector interval of [ns] nanoseconds that just
          ended, recorded at its end like {!Nap}: [phase] opened it and
          [inner] lists, in {!gc_phases} order, the other phases that
          ran inside it *)

let bool_bit b = if b then 1 else 0

let chaos_kind_code = function `Stall -> 0 | `Slow -> 1 | `Drop -> 2 | `Raise -> 3
let cancel_reason_code = function `Explicit -> 0 | `Deadline -> 1 | `Lease -> 2

(** Every {!gc_phase}, in code order. *)
let gc_phases : gc_phase list = [ `Stw_leader; `Stw_handler; `Minor; `Major_slice ]

let gc_phase_code : gc_phase -> int = function
  | `Stw_leader -> 0
  | `Stw_handler -> 1
  | `Minor -> 2
  | `Major_slice -> 3

let gc_phase_name : gc_phase -> string = function
  | `Stw_leader -> "stw-leader"
  | `Stw_handler -> "stw-handler"
  | `Minor -> "minor"
  | `Major_slice -> "major-slice"

let outcome_code = function
  | `Met -> 0
  | `Missed -> 1
  | `Failed -> 2
  | `Cancelled -> 3

(** [encode e] is [(code, a, b)] — the non-timestamp words of a ring
    slot.  Codes 17 and 22 are free. *)
let encode : t -> int * int * int = function
  | Beat -> (1, 0, 0)
  | Promote { kind = `Loop } -> (2, 0, 0)
  | Promote { kind = `Branch } -> (2, 1, 0)
  | Steal { ok; victim } -> (3, bool_bit ok, victim)
  | Join_suspend -> (4, 0, 0)
  | Join_resume -> (5, 0, 0)
  | Task_start { region } -> (6, region, 0)
  | Task_finish { region } -> (7, region, 0)
  | Nap { ns } -> (8, ns, 0)
  | Admit { tenant } -> (10, tenant, 0)
  | Reject { shed } -> (11, bool_bit shed, 0)
  | Dispatch { tenant; urgency } -> (12, tenant, urgency)
  | Complete { tenant; outcome; sojourn_ns } ->
      (13, (tenant lsl 2) lor outcome_code outcome, sojourn_ns)
  | Degraded { on } -> (14, bool_bit on, 0)
  | Chaos { kind; arg } -> (15, chaos_kind_code kind, arg)
  | Cancel { reason } -> (16, cancel_reason_code reason, 0)
  | Restart { attempt } -> (18, attempt, 0)
  | Conn { up } -> (19, bool_bit up, 0)
  | Frame { rx; kind; bytes } -> (20, (kind lsl 1) lor bool_bit rx, bytes)
  | Route { shard; size } -> (21, shard, size)
  | Drain { pending } -> (23, pending, 0)
  | Gc { phase; inner; ns } ->
      let bits =
        List.fold_left (fun m p -> m lor (1 lsl gc_phase_code p)) 0 inner
      in
      (9, gc_phase_code phase lor (bits lsl 2), ns)

let decode ~(code : int) ~(a : int) ~(b : int) : t option =
  match code with
  | 1 -> Some Beat
  | 2 -> Some (Promote { kind = (if a = 0 then `Loop else `Branch) })
  | 3 -> Some (Steal { ok = a = 1; victim = b })
  | 4 -> Some Join_suspend
  | 5 -> Some Join_resume
  | 6 -> Some (Task_start { region = a })
  | 7 -> Some (Task_finish { region = a })
  | 8 -> Some (Nap { ns = a })
  | 10 -> Some (Admit { tenant = a })
  | 11 -> Some (Reject { shed = a = 1 })
  | 12 -> Some (Dispatch { tenant = a; urgency = b })
  | 13 ->
      let outcome =
        match a land 3 with
        | 0 -> `Met
        | 1 -> `Missed
        | 2 -> `Failed
        | _ -> `Cancelled
      in
      Some (Complete { tenant = a asr 2; outcome; sojourn_ns = b })
  | 14 -> Some (Degraded { on = a = 1 })
  | 15 ->
      let kind =
        match a with 0 -> `Stall | 1 -> `Slow | 2 -> `Drop | _ -> `Raise
      in
      Some (Chaos { kind; arg = b })
  | 16 ->
      let reason =
        match a with 0 -> `Explicit | 1 -> `Deadline | _ -> `Lease
      in
      Some (Cancel { reason })
  | 18 -> Some (Restart { attempt = a })
  | 19 -> Some (Conn { up = a = 1 })
  | 20 -> Some (Frame { rx = a land 1 = 1; kind = a asr 1; bytes = b })
  | 21 -> Some (Route { shard = a; size = b })
  | 23 -> Some (Drain { pending = a })
  | 9 ->
      let phase = List.nth gc_phases (a land 3) in
      let inner =
        List.filter (fun p -> (a asr 2) land (1 lsl gc_phase_code p) <> 0)
          gc_phases
      in
      Some (Gc { phase; inner; ns = b })
  | _ -> None

let name : t -> string = function
  | Beat -> "beat"
  | Promote _ -> "promote"
  | Steal { ok = true; _ } -> "steal"
  | Steal { ok = false; _ } -> "steal-attempt"
  | Join_suspend -> "join-block"
  | Join_resume -> "join-resume"
  | Task_start _ -> "task-start"
  | Task_finish _ -> "task-finish"
  | Nap _ -> "nap"
  | Admit _ -> "admit"
  | Reject { shed = false } -> "reject"
  | Reject { shed = true } -> "shed"
  | Dispatch _ -> "dispatch"
  | Complete _ -> "complete"
  | Degraded { on = true } -> "degraded"
  | Degraded { on = false } -> "recovered"
  | Chaos { kind = `Stall; _ } -> "chaos-stall"
  | Chaos { kind = `Slow; _ } -> "chaos-slow"
  | Chaos { kind = `Drop; _ } -> "chaos-drop"
  | Chaos { kind = `Raise; _ } -> "chaos-raise"
  | Cancel { reason = `Explicit } -> "cancel"
  | Cancel { reason = `Deadline } -> "cancel-deadline"
  | Cancel { reason = `Lease } -> "cancel-lease"
  | Restart _ -> "restart"
  | Conn { up = true } -> "conn-open"
  | Conn { up = false } -> "conn-close"
  | Frame { rx = true; _ } -> "frame-rx"
  | Frame { rx = false; _ } -> "frame-tx"
  | Route _ -> "route"
  | Drain _ -> "drain"
  | Gc { phase; _ } -> "gc-" ^ gc_phase_name phase
