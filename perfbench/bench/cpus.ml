(** Per-thread CPU placement.  Threads and domains inherit the CPUs of
    the thread that spawns them, so placing a thread before it spawns a
    session's domains places the session too. *)

external get_cpus : unit -> int = "perfbench_get_cpus"
external set_cpus : int -> bool = "perfbench_set_cpus"

(* The two lowest CPUs this thread may use, as one-bit masks, and the
   full mask to restore; [None] on a one-CPU host. *)
let placement : (int * int * int) option Lazy.t =
  lazy
    (let all = get_cpus () in
     let low m = m land -m in
     let a = low all in
     let b = low (all lxor a) in
     if a = 0 || b = 0 then None else Some (a, b, all))

(** [with_cpus pick f] runs [f] on the CPUs [pick] chooses from
    (first, second, all), then restores the thread's CPUs; on a
    one-CPU host it just runs [f]. *)
let with_cpus (pick : int * int * int -> int) (f : unit -> 'a) : 'a =
  match Lazy.force placement with
  | None -> f ()
  | Some ((_, _, all) as p) ->
      ignore (set_cpus (pick p));
      Fun.protect ~finally:(fun () -> ignore (set_cpus all)) f
