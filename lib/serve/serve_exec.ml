(** The serving layer's differential-fuzz oracle: a TPAL program
    submitted {e through the pool} (admission → DRR → EDF dispatch →
    warm-session execution with the promotion hint installed) must
    produce a register file bit-identical to the sequential
    evaluator's — the same contract the battery's [par-*] oracles
    enforce for the direct executor, extended across the whole
    serving path.  Driven by [tpal_fuzz --serve] and replayed in
    tier-1 by {!Suite_serve}. *)

open Tpal

let pool_config ?(chaos : Par.Chaos.plan option) ~(domains : int)
    ~(heart_us : float) () : Pool.config =
  {
    Pool.default_config with
    runtime =
      {
        Par.Runtime.default_config with
        domains;
        heart_us;
        chaos;
      };
    (* fuzz programs are tiny; a generous lease keeps the watchdog
       thread out of the measurement entirely *)
    lease_s = 0.;
  }

(** What a through-pool execution can come back as, with cancellation
    as a {e typed} outcome rather than an exception to untangle. *)
type served =
  [ `Done of (Task.t, Machine_error.t) result
    (** the machine ran; [Error] = it got stuck (a program-level
        fault, not a pool failure) *)
  | `Cancelled of Par.Runtime.cancel_reason
  | `Error of Pool.error ]

(** [run_outcome ?options ?domains ?heart_us ?chaos p] boots
    a fresh pool, executes [p] through it, closes the pool, and
    returns the typed outcome plus the pool statistics. *)
let run_outcome ?(options = Eval.default_options) ?(domains = 1)
    ?(heart_us = 50.) ?chaos (p : Ast.program) : served * Pool.stats =
  let pool = Pool.create ~config:(pool_config ?chaos ~domains ~heart_us ()) () in
  let finish r =
    let st = Pool.close pool in
    (r, st)
  in
  match Pool.submit pool ~tenant:"fuzz" (Pool.Tpal { prog = p; options }) with
  | Error e ->
      ignore (Pool.close pool);
      failwith
        (Fmt.str "Serve_exec: submit rejected on an empty pool (%a)"
           Pool.pp_error e)
  | Ok ticket -> (
      match Pool.await pool ticket with
      | Ok { outcome = Pool.Tpal_result r; _ } -> finish (`Done r)
      | Ok { outcome = Pool.Checksum _; _ } ->
          ignore (Pool.close pool);
          assert false (* a Tpal submission always yields Tpal_result *)
      | Error (Pool.Cancelled reason) -> finish (`Cancelled reason)
      | Error e -> finish (`Error e))

(** [run ?options ?domains ?heart_us p]: {!run_outcome} for callers
    that expect the request to complete — a request-body exception
    re-raises, any other pool error fails typed. *)
let run ?(options = Eval.default_options) ?(domains = 1) ?(heart_us = 50.)
    (p : Ast.program) : (Task.t, Machine_error.t) result * Pool.stats =
  match run_outcome ~options ~domains ~heart_us p with
  | `Done r, st -> (r, st)
  | `Error (Pool.Failed e), _ -> raise e
  | (`Cancelled _ | `Error _), _ ->
      failwith "Serve_exec: single request on a fresh pool unresolved"

(** [check ?domains ?options prog ~outputs] compares the through-pool
    execution against the sequential evaluator on [outputs], returning
    {!Fuzz.Diff.divergence}s ([serve-stuck] / [serve-outputs]), one
    domain count at a time. *)
let check ?(domains = [ 1; 2 ]) ?(options = Fuzz.Diff.with_heart 17)
    (prog : Ast.program) ~(outputs : Ast.reg list) : Fuzz.Diff.divergence list
    =
  match Eval.run ~options:{ options with heart = None } prog with
  | Error e ->
      [ { Fuzz.Diff.oracle = "serve-ref";
          detail = Fmt.str "reference run stuck: %a" Machine_error.pp e } ]
  | Ok { stop = Eval.Blocked j; _ } ->
      [ { Fuzz.Diff.oracle = "serve-ref";
          detail = Fmt.str "reference run blocked on j%d" j } ]
  | Ok refr ->
      let expected =
        List.map (fun r -> (r, Regfile.find_opt r refr.task.regs)) outputs
      in
      List.concat_map
        (fun d ->
          match run ~options ~domains:d prog with
          | Error e, _ ->
              [ { Fuzz.Diff.oracle = "serve-stuck";
                  detail = Fmt.str "domains=%d: %a" d Machine_error.pp e } ]
          | Ok task, _ ->
              Fuzz.Diff.compare_outputs ~oracle:"serve-outputs"
                ~what:(Fmt.str "served, domains=%d" d)
                expected
                (List.map
                   (fun r -> (r, Regfile.find_opt r task.regs))
                   outputs))
        domains
