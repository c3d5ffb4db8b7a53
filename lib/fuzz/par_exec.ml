(** TPAL execution on the multi-domain heartbeat runtime: the
    {!Tpal_drive} interpreter core forking through
    {!Par.Runtime.fork2} inside one {!Par.Runtime.run} session — the
    fuzz battery's only executor where a generated program's forks can
    really run concurrently on separate domains.  Fuzz batteries run
    thousands of short sessions; a 1-domain session spawns no domain at
    all, and an N-domain session spawns exactly N−1. *)

open Tpal

exception Stuck = Tpal_drive.Stuck

let config ?(chaos : Par.Chaos.plan option) ~(domains : int)
    ~(heart_us : float) () : Par.Runtime.config =
  {
    Par.Runtime.default_config with
    domains;
    heart_us;
    chaos;
  }

(** [run ?options ?domains ?heart_us ?chaos p] interprets [p] inside
    one {!Par.Runtime.run} session at the given domain count,
    optionally under a seeded {!Par.Chaos.plan}.  Returns the final
    task and the scheduler's statistics.  A chaos [Raise] fault
    escapes as {!Par.Chaos.Injected} — callers opting into raising
    plans must treat it as a legal outcome. *)
let run ?(options = Eval.default_options) ?(domains = 2) ?(heart_us = 50.)
    ?chaos (p : Ast.program) :
    (Task.t * Par.Runtime.stats, Machine_error.t) result =
  try
    let task, stats =
      Par.Runtime.run
        ~config:(config ?chaos ~domains ~heart_us ())
        (fun () -> Tpal_drive.interpret ~options p)
    in
    Ok (task, stats)
  with Stuck e -> Error e
