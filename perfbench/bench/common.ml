(** What every workload hands back to the main program: named metrics with
    their units and spread, the attempted/failed tally, and free-form
    context for the results file. *)

open Perfbench_core

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** samples behind [value] *)
  q1 : float;  (** quartiles of those samples ([value] itself when n = 1) *)
  q3 : float;
}

let metric ?(n = 1) ?q1 ?q3 (name : string) (unit_ : string) (value : float) :
    metric =
  {
    name;
    value;
    unit_;
    n;
    q1 = Option.value q1 ~default:value;
    q3 = Option.value q3 ~default:value;
  }

(** The median of [xs], scaled by [k], with its quartiles. *)
let median_metric ?(k = 1.) (name : string) (unit_ : string) (xs : float array)
    : metric =
  let s = Stat.summarize xs in
  { name; value = k *. s.p50; unit_; n = s.n; q1 = k *. s.q1; q3 = k *. s.q3 }

(** A percentile of [xs] (scaled by [k]); [n] is the sample count. *)
let pct_metric ?(k = 1.) (name : string) (unit_ : string) (p : float)
    (xs : float array) : metric =
  let s = Stat.summarize xs in
  let v = k *. Stat.percentile (Stat.sorted_copy xs) p in
  { name; value = v; unit_; n = s.n; q1 = k *. s.q1; q3 = k *. s.q3 }

type out = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : (string * Json.t) list;
}

let s_of_ns (ns : int) : float = float_of_int ns *. 1e-9

(** [time_ns f] runs [f] and returns its wall time in ns with its value. *)
let time_ns (f : unit -> 'a) : int * 'a =
  let t0 = Mclock.now_ns () in
  let v = f () in
  (Mclock.now_ns () - t0, v)

(** Peak resident set size of this process, in MB ([VmHWM]). *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(** [repeat_setup k f]: run the set-up [f] [k] times, tearing down every
    instance but the last with [close] and collecting its garbage
    (untimed, so the peak RSS does not depend on when the collector
    got to it); returns the last instance and the set-up times in
    seconds. *)
let repeat_setup (k : int) ~(close : 'a -> unit) (f : unit -> 'a) :
    'a * float array =
  let times = Array.make k 0. in
  let rec go i =
    let ns, x = time_ns f in
    times.(i) <- s_of_ns ns;
    if i = k - 1 then x
    else begin
      close x;
      Gc.full_major ();
      go (i + 1)
    end
  in
  let x = go 0 in
  (x, times)
