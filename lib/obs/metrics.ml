(** A production-metrics snapshot: worker counters and ring accounting
    folded into one record with the derived rates operators actually
    watch (steal-failure rate, promotions per beat, idle share).

    The record is plain data — {!Par.Runtime.metrics} fills it from a
    session's stats, and {!Serve.Pool.metrics} adds the pool's own
    restart and lease-stall counters — so this module stays
    dependency-free below [par]/[serve]. *)

type t = {
  domains : int;
  elapsed_s : float;
  beats : int;
  promotions : int;
  loop_promotions : int;
  branch_promotions : int;
  joins : int;
  resumes : int;
  steals : int;
  steal_attempts : int;
  tasks : int;
  max_deque : int;
  idle_ns : int;  (** total nanoseconds workers slept in idle backoff *)
  faults_injected : int;  (** chaos-schedule faults that actually fired *)
  cancels : int;  (** cooperative cancellations observed at polls *)
  polls : int;  (** promotion-ready polls (loop strip ends, fork points) *)
  restarts : int;  (** warm session restarts after a runtime death *)
  stalls : int;  (** watchdog / lease stall detections *)
  traced : int;  (** events emitted into rings (0 when tracing is off) *)
  dropped : int;  (** ring events lost to drop-oldest overflow *)
}

let zero =
  {
    domains = 0;
    elapsed_s = 0.;
    beats = 0;
    promotions = 0;
    loop_promotions = 0;
    branch_promotions = 0;
    joins = 0;
    resumes = 0;
    steals = 0;
    steal_attempts = 0;
    tasks = 0;
    max_deque = 0;
    idle_ns = 0;
    faults_injected = 0;
    cancels = 0;
    polls = 0;
    restarts = 0;
    stalls = 0;
    traced = 0;
    dropped = 0;
  }

(** Fraction of steal probes that came up empty. *)
let steal_failure_rate (m : t) : float =
  if m.steal_attempts = 0 then 0.
  else 1. -. (float_of_int m.steals /. float_of_int m.steal_attempts)

let promotions_per_beat (m : t) : float =
  if m.beats = 0 then 0.
  else float_of_int m.promotions /. float_of_int m.beats

(** Idle-sleep share of total worker-seconds. *)
let idle_frac (m : t) : float =
  if m.elapsed_s <= 0. || m.domains = 0 then 0.
  else
    float_of_int m.idle_ns /. 1e9
    /. (m.elapsed_s *. float_of_int m.domains)

let pp ppf (m : t) =
  Fmt.pf ppf
    "@[<v>domains            %d@,elapsed            %.6f s@,\
     beats              %d@,promotions         %d (%d loop, %d branch; \
     %.2f/beat)@,polls              %d@,joins/resumes      %d/%d@,\
     steals             %d/%d attempts (%.1f%% failed)@,\
     tasks              %d@,max deque depth    %d@,\
     idle sleep         %.3f ms (%.1f%% of worker-time)@,\
     faults injected    %d@,cancels            %d@,\
     restarts/stalls    %d/%d@,traced events      %d (%d dropped)@]"
    m.domains m.elapsed_s m.beats m.promotions m.loop_promotions
    m.branch_promotions (promotions_per_beat m) m.polls m.joins m.resumes
    m.steals m.steal_attempts
    (100. *. steal_failure_rate m)
    m.tasks m.max_deque
    (float_of_int m.idle_ns /. 1e6)
    (100. *. idle_frac m)
    m.faults_injected m.cancels m.restarts m.stalls m.traced
    m.dropped
