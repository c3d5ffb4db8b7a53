(** A production-metrics snapshot: worker counters and ring accounting
    folded into one record with the derived rates operators actually
    watch (steal-failure rate, promotions per beat, idle share).

    {!counters} is the one list of the heartbeat runtime's scheduler
    counters: {!Par.Runtime.worker_stats} is that type, a session's
    totals are the {!add} fold of its workers', and [bench --par-bench]
    rows hold it.  The records are plain data —
    {!Par.Runtime.metrics} fills [t] from a session's stats, and
    {!Serve.Pool.metrics} adds the pool's own restart and lease-stall
    counters — so this module stays dependency-free below
    [par]/[serve]. *)

type counters = {
  beats : int;
  promotions : int;
  loop_promotions : int;
  branch_promotions : int;
  joins : int;  (** parents parked on a join record (each resumed once) *)
  resumes : int;  (** parents re-enqueued by their last child *)
  steals : int;
  steal_attempts : int;
  tasks_run : int;
  max_deque : int;
  idle_ns : int;  (** nanoseconds slept in idle backoff (naps only) *)
  faults_injected : int;  (** chaos-schedule faults that fired *)
  cancels : int;  (** polls that observed a cancel token and unwound *)
  polls : int;  (** promotion-ready polls: loop strip ends and fork points *)
}

let zero =
  {
    beats = 0;
    promotions = 0;
    loop_promotions = 0;
    branch_promotions = 0;
    joins = 0;
    resumes = 0;
    steals = 0;
    steal_attempts = 0;
    tasks_run = 0;
    max_deque = 0;
    idle_ns = 0;
    faults_injected = 0;
    cancels = 0;
    polls = 0;
  }

(** Sums every counter but [max_deque], which is a max. *)
let add (a : counters) (b : counters) : counters =
  {
    beats = a.beats + b.beats;
    promotions = a.promotions + b.promotions;
    loop_promotions = a.loop_promotions + b.loop_promotions;
    branch_promotions = a.branch_promotions + b.branch_promotions;
    joins = a.joins + b.joins;
    resumes = a.resumes + b.resumes;
    steals = a.steals + b.steals;
    steal_attempts = a.steal_attempts + b.steal_attempts;
    tasks_run = a.tasks_run + b.tasks_run;
    max_deque = max a.max_deque b.max_deque;
    idle_ns = a.idle_ns + b.idle_ns;
    faults_injected = a.faults_injected + b.faults_injected;
    cancels = a.cancels + b.cancels;
    polls = a.polls + b.polls;
  }

type t = {
  domains : int;
  elapsed_s : float;
  total : counters;  (** summed over workers; [max_deque] is a max *)
  restarts : int;  (** warm session restarts after a runtime death *)
  stalls : int;  (** watchdog / lease stall detections *)
  traced : int;  (** events emitted into rings (0 when tracing is off) *)
  dropped : int;  (** ring events lost to drop-oldest overflow *)
}

(** Fraction of steal probes that came up empty. *)
let steal_failure_rate (m : t) : float =
  if m.total.steal_attempts = 0 then 0.
  else
    1. -. (float_of_int m.total.steals /. float_of_int m.total.steal_attempts)

let promotions_per_beat (m : t) : float =
  if m.total.beats = 0 then 0.
  else float_of_int m.total.promotions /. float_of_int m.total.beats

(** Idle-sleep share of total worker-seconds. *)
let idle_frac (m : t) : float =
  if m.elapsed_s <= 0. || m.domains = 0 then 0.
  else
    float_of_int m.total.idle_ns /. 1e9
    /. (m.elapsed_s *. float_of_int m.domains)

let pp ppf (m : t) =
  let c = m.total in
  Fmt.pf ppf
    "@[<v>domains            %d@,elapsed            %.6f s@,\
     beats              %d@,promotions         %d (%d loop, %d branch; \
     %.2f/beat)@,polls              %d@,joins/resumes      %d/%d@,\
     steals             %d/%d attempts (%.1f%% failed)@,\
     tasks              %d@,max deque depth    %d@,\
     idle sleep         %.3f ms (%.1f%% of worker-time)@,\
     faults injected    %d@,cancels            %d@,\
     restarts/stalls    %d/%d@,traced events      %d (%d dropped)@]"
    m.domains m.elapsed_s c.beats c.promotions c.loop_promotions
    c.branch_promotions (promotions_per_beat m) c.polls c.joins c.resumes
    c.steals c.steal_attempts
    (100. *. steal_failure_rate m)
    c.tasks_run c.max_deque
    (float_of_int c.idle_ns /. 1e6)
    (100. *. idle_frac m)
    c.faults_injected c.cancels m.restarts m.stalls m.traced
    m.dropped
