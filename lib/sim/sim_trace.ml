(** Structured event recorder for the discrete-event engine — the
    observability layer behind every figure's cycle accounting.

    The engine's end-of-run {!Metrics} are aggregates; when a figure
    comes out wrong they say nothing about {e where} the cycles went.
    This recorder captures the engine's scheduling decisions as a
    stream of timestamped events (virtual cycle, core id, task id):
    segment starts/ends with their exact work/overhead/idle cycle
    breakdown, steal probes and successes, promotion attempts and
    successes, heartbeat deliveries and losses, join blocks/resumes,
    parks and wake-ups.

    Recording is strictly opt-in: {!Engine.run} takes an optional
    recorder and pays only a single match per emission site when it is
    absent.  Consumers:

    - {!to_chrome} exports the stream in Chrome [trace_event] JSON
      (via the generic {!Stats.Chrome_trace}), loadable in
      [chrome://tracing] or Perfetto;
    - {!report} renders a plain-text per-core timeline and cycle
      breakdown;
    - {!per_core_totals}, {!utilization_histogram},
      {!steal_latencies} and {!promotion_interarrivals} derive
      validation metrics that the test suite asserts invariants
      against (traced cycles must reconcile {e exactly} with
      {!Metrics}; no running segment may span a beat delivery). *)

type seg_class = Run | Service | Acquire | Idle

let seg_name = function
  | Run -> "run"
  | Service -> "beat-service"
  | Acquire -> "acquire"
  | Idle -> "idle"

type kind =
  | Seg_start of seg_class
  | Seg_end of { cls : seg_class; work : int; overhead : int; idle : int }
      (** cycle breakdown of the segment that just ended; the segment's
          start is the matching {!Seg_start} on the same core *)
  | Steal_attempt of { victim : int }
  | Steal_success of { victim : int }
  | Promote_attempt
  | Promote_success of { child : int }
  | Beat_delivered of { arrived : int; handler_cost : int }
      (** [at] is the {e effective} delivery time — the promotion-ready
          point where the handler can run; [arrived] is when the
          interrupt mechanism fired it *)
  | Beat_lost
  | Join_block
  | Join_resume of { waiter : int }
  | Park
  | Unpark
  (* crash-fault recovery (emitted only when a fault schedule is set) *)
  | Core_crash  (** the core halted permanently at [at] *)
  | Core_stall of { until : int }  (** frozen until [until], then revives *)
  | Core_slow of { factor : float }  (** retiring cycles [factor]× slower *)
  | Core_recover  (** a stalled core resumed execution *)
  | Lease_expired  (** the supervisor found this core's task lease expired *)
  | Task_requeue of { from_ : int }
      (** [task] re-enqueued on core [core] for re-execution after
          being lost on core [from_] (lease expiry or deque drain) *)
  | Duplicate_finish
      (** a second incarnation of [task] completed; the join latch
          made it a no-op *)

type event = {
  at : int;  (** virtual cycle *)
  core : int;
  task : int;  (** task id, [-1] when no task is involved *)
  kind : kind;
}

type t = { mutable buf : event array; mutable len : int }

let create () : t = { buf = [||]; len = 0 }

let dummy = { at = 0; core = 0; task = -1; kind = Park }

(** [emit t ~at ~core ?task kind] appends one event (amortized O(1)). *)
let emit (t : t) ~(at : int) ~(core : int) ?(task = -1) (kind : kind) : unit =
  if t.len = Array.length t.buf then begin
    let cap = max 1024 (2 * Array.length t.buf) in
    let buf = Array.make cap dummy in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- { at; core; task; kind };
  t.len <- t.len + 1

let length (t : t) : int = t.len
let iter (f : event -> unit) (t : t) : unit =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

(** Events in emission order (per core this is chronological; across
    cores segment ends are recorded when the segment is scheduled). *)
let events (t : t) : event list = List.init t.len (fun i -> t.buf.(i))

(** Number of cores that emitted at least one event. *)
let procs (t : t) : int =
  let m = ref (-1) in
  iter (fun e -> if e.core > !m then m := e.core) t;
  !m + 1

(** Last timestamp in the trace (the traced horizon). *)
let horizon (t : t) : int =
  let m = ref 0 in
  iter (fun e -> if e.at > !m then m := e.at) t;
  !m

(* ------------------------------------------------------------------ *)
(* Derived validation metrics                                         *)
(* ------------------------------------------------------------------ *)

type core_totals = { work : int; overhead : int; idle : int }

(** Per-core cycle totals summed from the traced segment breakdowns;
    by construction these must reconcile exactly with
    [Metrics.{work,overhead,idle}]. *)
let per_core_totals (t : t) : core_totals array
    =
  let n = max 1 (procs t) in
  let w = Array.make n 0 and o = Array.make n 0 and i = Array.make n 0 in
  iter
    (fun e ->
      match e.kind with
      | Seg_end s ->
          w.(e.core) <- w.(e.core) + s.work;
          o.(e.core) <- o.(e.core) + s.overhead;
          i.(e.core) <- i.(e.core) + s.idle
      | _ -> ())
    t;
  Array.init n (fun c -> { work = w.(c); overhead = o.(c); idle = i.(c) })

(** Fleet-wide traced totals. *)
let totals (t : t) : core_totals =
  Array.fold_left
    (fun acc c ->
      { work = acc.work + c.work;
        overhead = acc.overhead + c.overhead;
        idle = acc.idle + c.idle })
    { work = 0; overhead = 0; idle = 0 }
    (per_core_totals t)

let count (p : event -> bool) (t : t) : int =
  let n = ref 0 in
  iter (fun e -> if p e then incr n) t;
  !n

(** Heartbeats delivered (effective deliveries recorded by the engine). *)
let beats (t : t) : int =
  count (fun e -> match e.kind with Beat_delivered _ -> true | _ -> false) t

(** Heartbeats lost inside the interrupt mechanism. *)
let beats_lost (t : t) : int =
  count (fun e -> match e.kind with Beat_lost -> true | _ -> false) t

let steals (t : t) : int =
  count (fun e -> match e.kind with Steal_success _ -> true | _ -> false) t

let promotions (t : t) : int =
  count
    (fun e -> match e.kind with Promote_success _ -> true | _ -> false)
    t

(** Cores that crashed permanently during the traced run. *)
let crashes (t : t) : int =
  count (fun e -> match e.kind with Core_crash -> true | _ -> false) t

(** Tasks requeued for re-execution (lease expiries and deque drains). *)
let requeues (t : t) : int =
  count (fun e -> match e.kind with Task_requeue _ -> true | _ -> false) t

(** Duplicate completions absorbed by the idempotent-join latch. *)
let duplicate_finishes (t : t) : int =
  count (fun e -> match e.kind with Duplicate_finish -> true | _ -> false) t

(** Per-core utilization (work cycles / makespan) bucketed into
    [bins] equal-width bins over [0,1] — the traced counterpart of
    Figure 15b's utilization bars. *)
let utilization_histogram ?(bins = 10) (t : t) ~(makespan : int) : int array
    =
  let h = Array.make bins 0 in
  if makespan > 0 then
    Array.iter
      (fun c ->
        let u = float_of_int c.work /. float_of_int makespan in
        let b = min (bins - 1) (max 0 (int_of_float (u *. float_of_int bins))) in
        h.(b) <- h.(b) + 1)
      (per_core_totals t);
  h

(** Steal latencies: for every successful steal, the cycles between
    the core's first probe of the current work drought and the
    success (includes the exponential back-off the engine inserts). *)
let steal_latencies (t : t) : int list =
  let n = max 1 (procs t) in
  let hunt = Array.make n (-1) in
  let acc = ref [] in
  iter
    (fun e ->
      match e.kind with
      | Steal_attempt _ -> if hunt.(e.core) < 0 then hunt.(e.core) <- e.at
      | Steal_success _ ->
          if hunt.(e.core) >= 0 then begin
            acc := (e.at - hunt.(e.core)) :: !acc;
            hunt.(e.core) <- -1
          end
      | Seg_start Acquire ->
          (* the drought ended without a steal (own-deque pop) *)
          hunt.(e.core) <- -1
      | _ -> ())
    t;
  List.rev !acc

(** Inter-arrival times between consecutive successful promotions,
    fleet-wide — the pacing heartbeat scheduling is supposed to
    impose. *)
let promotion_interarrivals (t : t) : int list =
  let times = ref [] in
  iter
    (fun e ->
      match e.kind with
      | Promote_success _ -> times := e.at :: !times
      | _ -> ())
    t;
  let sorted = List.sort compare (List.rev !times) in
  match sorted with
  | [] | [ _ ] -> []
  | first :: rest ->
      let _, diffs =
        List.fold_left
          (fun (prev, acc) t -> (t, (t - prev) :: acc))
          (first, []) rest
      in
      List.rev diffs

(** Matched [(class, start, stop, work, overhead, idle)] segments of
    one core, in time order. *)
let segments_of_core (t : t) (core : int) :
    (seg_class * int * int * int * int * int) list =
  let open_start = ref None in
  let acc = ref [] in
  iter
    (fun e ->
      if e.core = core then
        match e.kind with
        | Seg_start cls -> open_start := Some (cls, e.at)
        | Seg_end s -> (
            match !open_start with
            | Some (cls, start) when cls = s.cls ->
                open_start := None;
                acc := (cls, start, e.at, s.work, s.overhead, s.idle) :: !acc
            | _ -> ())
        | _ -> ())
    t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Plain-text per-core timeline & breakdown report                    *)
(* ------------------------------------------------------------------ *)

(* One character per time bucket: the class holding the most cycles in
   the bucket ('W' work, 'o' overhead, '.' idle / nothing). *)
let timeline_strip (t : t) (core : int) ~(horizon : int) ~(width : int) :
    string =
  let w = Array.make width 0. and o = Array.make width 0. in
  let i = Array.make width 0. in
  let bucket_len = float_of_int (max 1 horizon) /. float_of_int width in
  let spread (start : int) (stop : int) (cycles : int) (dst : float array) =
    if stop > start && cycles > 0 then begin
      let density =
        float_of_int cycles /. float_of_int (stop - start)
      in
      let b0 = min (width - 1) (int_of_float (float_of_int start /. bucket_len))
      and b1 =
        min (width - 1) (int_of_float (float_of_int (stop - 1) /. bucket_len))
      in
      for b = b0 to b1 do
        let lo = Float.max (float_of_int start) (float_of_int b *. bucket_len)
        and hi =
          Float.min (float_of_int stop) (float_of_int (b + 1) *. bucket_len)
        in
        if hi > lo then dst.(b) <- dst.(b) +. (density *. (hi -. lo))
      done
    end
  in
  List.iter
    (fun (_, start, stop, sw, so, si) ->
      spread start stop sw w;
      spread start stop so o;
      spread start stop si i)
    (segments_of_core t core);
  String.init width (fun b ->
      if w.(b) = 0. && o.(b) = 0. then '.'
      else if w.(b) >= o.(b) then 'W'
      else 'o')

(** [report t] — a plain-text observability report: per-core cycle
    breakdown table, per-core timeline strips ('W' work-dominant, 'o'
    overhead-dominant, '.' idle), and the derived distributions. *)
let report ?(width = 64) (t : t) : string =
  let n = max 1 (procs t) in
  let hz = horizon t in
  let per = per_core_totals t in
  let fleet = totals t in
  let f1 = Stats.Table.fmt_float ~decimals:1 in
  let util (c : core_totals) =
    if hz = 0 then 0. else 100. *. float_of_int c.work /. float_of_int hz
  in
  let row c (ct : core_totals) =
    [
      Printf.sprintf "core %d" c;
      Stats.Table.fmt_int_grouped ct.work;
      Stats.Table.fmt_int_grouped ct.overhead;
      Stats.Table.fmt_int_grouped ct.idle;
      f1 (util ct);
    ]
  in
  let table =
    Stats.Table.make ~title:"Per-core cycle breakdown (traced)"
      ~header:[ "core"; "work"; "overhead"; "idle"; "util%" ]
      (List.init n (fun c -> row c per.(c))
      @ [
          [
            "total";
            Stats.Table.fmt_int_grouped fleet.work;
            Stats.Table.fmt_int_grouped fleet.overhead;
            Stats.Table.fmt_int_grouped fleet.idle;
            f1
              (if hz = 0 then 0.
               else
                 100. *. float_of_int fleet.work
                 /. float_of_int (n * hz));
          ];
        ])
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\nTimeline (";
  Buffer.add_string buf (Stats.Table.fmt_int_grouped hz);
  Buffer.add_string buf " cycles, W=work o=overhead .=idle):\n";
  for c = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  core %2d |%s|\n" c (timeline_strip t c ~horizon:hz ~width))
  done;
  let lat = List.map float_of_int (steal_latencies t) in
  let inter = List.map float_of_int (promotion_interarrivals t) in
  (* empty distributions (zero completed steals, zero beats) render as
     "-" instead of the nan a bare mean would produce *)
  let stat f xs = match xs with [] -> "-" | _ -> f1 (f xs) in
  Buffer.add_string buf
    (Printf.sprintf
       "\nbeats delivered=%d lost=%d | promotions=%d (inter-arrival mean %s \
        cycles) | steals=%d (latency mean %s max %s cycles)\n"
       (beats t) (beats_lost t) (promotions t)
       (stat Stats.mean inter)
       (steals t)
       (stat Stats.mean lat)
       (stat Stats.max_l lat));
  let nc = crashes t and nr = requeues t and nd = duplicate_finishes t in
  let nstall =
    count (fun e -> match e.kind with Core_stall _ -> true | _ -> false) t
  in
  if nc > 0 || nr > 0 || nd > 0 || nstall > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "DEGRADED: crashes=%d stalls=%d requeues=%d duplicate-finishes=%d\n"
         nc nstall nr nd);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                          *)
(* ------------------------------------------------------------------ *)

(** [to_chrome ~cycles_per_us t] maps the stream onto Chrome
    trace-event JSON objects: one thread per core, complete spans for
    segments, thread-scoped instants for the point events.  Times are
    µs rounded to the ns, as [Obs.Export]'s are: an exact
    [cycles / cycles_per_us] prints with up to 17 digits. *)
let to_chrome ?(cycles_per_us = Params.default.cycles_per_us) (t : t) :
    Stats.Json.t list =
  let module C = Stats.Chrome_trace in
  let module J = Stats.Json in
  let us cycles =
    Float.round (float_of_int cycles *. 1e3 /. float_of_int cycles_per_us)
    /. 1e3
  in
  let n = max 1 (procs t) in
  let meta =
    C.process_name ~pid:0 "tpal-sim"
    :: List.init n (fun c ->
           C.thread_name ~pid:0 ~tid:c (Printf.sprintf "core %d" c))
  in
  let spans =
    List.concat
      (List.init n (fun c ->
           List.map
             (fun (cls, start, stop, w, o, i) ->
               C.complete ~cat:"segment"
                 ~args:
                   [ ("work", J.Int w); ("overhead", J.Int o);
                     ("idle", J.Int i) ]
                 ~name:(seg_name cls) ~pid:0 ~tid:c ~ts:(us start)
                 ~dur:(us (stop - start))
                 ())
             (segments_of_core t c)))
  in
  let instants = ref [] in
  iter
    (fun e ->
      let add ?(args = []) name cat =
        instants :=
          C.instant ~cat
            ~args:(("task", J.Int e.task) :: args)
            ~name ~pid:0 ~tid:e.core ~ts:(us e.at) ()
          :: !instants
      in
      match e.kind with
      | Seg_start _ | Seg_end _ -> ()
      | Steal_attempt { victim } ->
          add ~args:[ ("victim", J.Int victim) ] "steal-attempt" "steal"
      | Steal_success { victim } ->
          add ~args:[ ("victim", J.Int victim) ] "steal" "steal"
      | Promote_attempt -> add "promote-attempt" "promotion"
      | Promote_success { child } ->
          add ~args:[ ("child", J.Int child) ] "promote" "promotion"
      | Beat_delivered { arrived; handler_cost } ->
          add
            ~args:
              [ ("arrived", J.Int arrived);
                ("handler_cost", J.Int handler_cost) ]
            "beat" "heartbeat"
      | Beat_lost -> add "beat-lost" "heartbeat"
      | Join_block -> add "join-block" "join"
      | Join_resume { waiter } ->
          add ~args:[ ("waiter", J.Int waiter) ] "join-resume" "join"
      | Park -> add "park" "scheduler"
      | Unpark -> add "unpark" "scheduler"
      | Core_crash -> add "crash" "fault"
      | Core_stall { until } ->
          add ~args:[ ("until", J.Int until) ] "stall" "fault"
      | Core_slow { factor } ->
          add ~args:[ ("factor", J.Float factor) ] "slow" "fault"
      | Core_recover -> add "recover" "fault"
      | Lease_expired -> add "lease-expired" "recovery"
      | Task_requeue { from_ } ->
          add ~args:[ ("from", J.Int from_) ] "requeue" "recovery"
      | Duplicate_finish -> add "duplicate-finish" "recovery")
    t;
  meta @ spans @ List.rev !instants

(** Chrome trace JSON for the whole recording. *)
let to_chrome_string ?cycles_per_us (t : t) : string =
  Stats.Chrome_trace.to_string (to_chrome ?cycles_per_us t)
