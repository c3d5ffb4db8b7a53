(** What-if span profiling (first cut of ROADMAP item 4, after
    TASKPROF): attribute work and span to source regions, then answer
    "how much faster would this run be were region [r] N× more
    parallel?" by shrinking [r]'s span contribution N× and re-applying
    Brent's bound.

    Two sources:

    - {!of_eval} replays a TPAL program under {!Tpal.Eval}'s hook and
      rebuilds the series–parallel cost graph of Figure 28 {e with
      per-region attribution}: every sequential tick is charged to the
      basic block it executes in, every τ to the forking block, and a
      parallel composition's span map is the longer branch's.  The
      unattributed totals coincide exactly with the evaluator's own
      {!Tpal.Cost.summary} — a reconciliation the test suite checks on
      fuzz-generated programs.  Units: instructions.
    - {!of_trace} reads a real runtime's {!Trace} (the simulator
      records a [Sim.Sim_trace], which it cannot read): region work is
      the summed wall-time of its task spans, region span its
      {e serialized} time — wall-time during which that region's tasks
      were the only ones running anywhere, i.e. time no amount of
      extra parallelism elsewhere could hide.  Units: nanoseconds.

    Prediction model, either way: for region [r] with span share
    [s_r], the N×-parallel variant has [span' = S - s_r + s_r/N], and
    on [P] processors Brent gives [T'(P) = W/P + span'], so the
    predicted speedup is [T(P)/T'(P)] (with [P = ∞], [S/span']). *)

module Smap = Map.Make (String)

(* The attributed cost monoid: Figure 28's (work, span) summary carrying
   per-region decompositions.  Invariants: Σ rwork = work and
   Σ rspan = span — [par] keeps them by charging τ to the fork site and
   taking the whole span map of the longer branch. *)
type attr = {
  work : int;
  span : int;
  forks : int;
  rwork : int Smap.t;
  rspan : int Smap.t;
}

let azero =
  { work = 0; span = 0; forks = 0; rwork = Smap.empty; rspan = Smap.empty }

let radd (region : string) (v : int) (m : int Smap.t) : int Smap.t =
  if v = 0 then m
  else
    Smap.update region
      (fun prev -> Some (Option.value prev ~default:0 + v))
      m

let runion (a : int Smap.t) (b : int Smap.t) : int Smap.t =
  Smap.union (fun _ x y -> Some (x + y)) a b

let atick ~(region : string) (a : attr) : attr =
  {
    a with
    work = a.work + 1;
    span = a.span + 1;
    rwork = radd region 1 a.rwork;
    rspan = radd region 1 a.rspan;
  }

let aseq (a : attr) (b : attr) : attr =
  {
    work = a.work + b.work;
    span = a.span + b.span;
    forks = a.forks + b.forks;
    rwork = runion a.rwork b.rwork;
    rspan = runion a.rspan b.rspan;
  }

let apar ~(tau : int) ~(region : string) (a : attr) (b : attr) : attr =
  let winner = if a.span >= b.span then a else b in
  {
    work = tau + a.work + b.work;
    span = tau + max a.span b.span;
    forks = 1 + a.forks + b.forks;
    rwork = radd region tau (runion a.rwork b.rwork);
    rspan = radd region tau winner.rspan;
  }

(* ------------------------------------------------------------------ *)

type region = { name : string; work : int; span : int }

type t = {
  source : string;  (** ["eval"] or ["trace"] *)
  unit_ : string;  (** ["instr"] or ["ns"] *)
  total_work : int;
  total_span : int;
  forks : int;
  regions : region list;  (** descending by span *)
}

let of_attr ~(source : string) ~(unit_ : string) (a : attr) : t =
  let regions =
    Smap.fold
      (fun name work acc ->
        { name; work; span = Option.value (Smap.find_opt name a.rspan) ~default:0 }
        :: acc)
      a.rwork []
  in
  (* span-only regions (possible for of_trace) still deserve a row *)
  let regions =
    Smap.fold
      (fun name span acc ->
        if Smap.mem name a.rwork then acc
        else { name; work = 0; span } :: acc)
      a.rspan regions
  in
  {
    source;
    unit_;
    total_work = a.work;
    total_span = a.span;
    forks = a.forks;
    regions =
      List.sort (fun a b -> compare (b.span, b.work) (a.span, a.work)) regions;
  }

(* ------------------------------------------------------------------ *)
(* Source 1: the evaluator's hook stream.  We rebuild the derivation
   tree with an explicit frame stack keyed by join ids: E_fork pushes a
   frame (saving the accumulator), the parent's E_join_block banks the
   parent branch, E_combine pops and composes parent ∥ child at the
   fork site's τ, and E_halt unwinds any frames an abrupt halt cut
   through — mirroring Eval.eval's own cost composition case by
   case. *)

type frame = {
  join : int;
  fork_region : string;
  outer : attr;
  mutable parent : attr option;
}

type builder = { mutable acc : attr; mutable stack : frame list }

let hook_of_builder (st : builder) ~(tau : int) : Tpal.Eval.event -> unit =
  let region (task : Tpal.Task.t) = task.pc.label in
  fun ev ->
    match (ev : Tpal.Eval.event) with
    | E_step task
    | E_promote { task; _ }
    | E_jralloc { task; _ }
    | E_join_continue { task; _ } ->
        st.acc <- atick ~region:(region task) st.acc
    | E_fork { task; join; _ } ->
        st.stack <-
          { join; fork_region = region task; outer = st.acc; parent = None }
          :: st.stack;
        st.acc <- azero
    | E_join_block { task; join } -> (
        st.acc <- atick ~region:(region task) st.acc;
        match st.stack with
        | f :: _ when f.join = join && f.parent = None ->
            (* the parent branch of the innermost fork just finished *)
            f.parent <- Some st.acc;
            st.acc <- azero
        | _ ->
            (* the child branch (composed at E_combine), or a terminal
               top-level block *)
            ())
    | E_combine { join; _ } -> (
        match st.stack with
        | f :: rest when f.join = join ->
            st.stack <- rest;
            let parent = Option.value f.parent ~default:azero in
            st.acc <-
              aseq f.outer
                (apar ~tau ~region:f.fork_region parent st.acc)
        | _ -> () (* unbalanced stream: only possible on machine errors *))
    | E_halt _ ->
        (* halt stops the whole machine: unwind open forks exactly as
           Eval composes Halted branches (the missing branch is 0) *)
        List.iter
          (fun f ->
            let composed =
              match f.parent with
              | None -> apar ~tau ~region:f.fork_region st.acc azero
              | Some p -> apar ~tau ~region:f.fork_region p st.acc
            in
            st.acc <- aseq f.outer composed)
          st.stack;
        st.stack <- []

(** [of_eval program] — run [program] under the evaluator and return
    the region-attributed profile next to the evaluator's own result.
    [t.total_work]/[t.total_span] equal [finished.cost.work]/[.span]
    exactly. *)
let of_eval ?(options = Tpal.Eval.default_options)
    ?(bindings : (Tpal.Ast.reg * Tpal.Value.t) list = [])
    (program : Tpal.Ast.program) :
    (t * Tpal.Eval.finished, Tpal.Machine_error.t) result =
  let st = { acc = azero; stack = [] } in
  let hook = hook_of_builder st ~tau:options.tau in
  match Tpal.Eval.run_seeded ~hook ~options program bindings with
  | Error err -> Error err
  | Ok fin -> Ok (of_attr ~source:"eval" ~unit_:"instr" st.acc, fin)

(* ------------------------------------------------------------------ *)
(* Source 2: task intervals of a real (or sim) trace. *)

let intervals_of_trace (tr : Trace.t) : (int * int * string) list =
  let out = ref [] in
  List.iter
    (fun ((_, events) : string * (int * Event.t) list) ->
      let open_tasks = ref [] in
      let last_ts = ref 0 in
      List.iter
        (fun (at_ns, e) ->
          last_ts := max !last_ts at_ns;
          match (e : Event.t) with
          | Task_start { region } -> open_tasks := (at_ns, region) :: !open_tasks
          | Task_finish _ -> (
              match !open_tasks with
              | (t0, region) :: rest ->
                  open_tasks := rest;
                  if at_ns > t0 then
                    out := (t0, at_ns, Trace.label tr region) :: !out
              | [] -> ())
          | _ -> ())
        events;
      List.iter
        (fun (t0, region) ->
          if !last_ts > t0 then out := (t0, !last_ts, Trace.label tr region) :: !out)
        !open_tasks)
    (Trace.events tr);
  !out

(** [of_trace tr]: wall-clock attribution from task spans.  Work per
    region is its total task time; span per region is its serialized
    time (exactly one task running anywhere); totals are the summed
    task time and the makespan. *)
let of_trace (tr : Trace.t) : t =
  let ivs = intervals_of_trace tr in
  match ivs with
  | [] ->
      { source = "trace"; unit_ = "ns"; total_work = 0; total_span = 0;
        forks = 0; regions = [] }
  | _ ->
      let rwork =
        List.fold_left
          (fun m (t0, t1, r) -> radd r (t1 - t0) m)
          Smap.empty ivs
      in
      let total_work = Smap.fold (fun _ v n -> n + v) rwork 0 in
      let t_min = List.fold_left (fun m (t0, _, _) -> min m t0) max_int ivs in
      let t_max = List.fold_left (fun m (_, t1, _) -> max m t1) 0 ivs in
      (* serialized time: sweep interval boundaries, attribute stretches
         where exactly one task is live to its region *)
      let bounds =
        List.concat_map (fun (t0, t1, r) -> [ (t0, 1, r); (t1, -1, r) ]) ivs
        |> List.sort compare
      in
      let active : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let live = ref 0 in
      let prev_t = ref t_min in
      let rspan = ref Smap.empty in
      List.iter
        (fun (t, delta, r) ->
          if !live = 1 && t > !prev_t then begin
            (* the single live region *)
            Hashtbl.iter
              (fun r' n -> if n > 0 then rspan := radd r' (t - !prev_t) !rspan)
              active
          end;
          prev_t := t;
          live := !live + delta;
          Hashtbl.replace active r
            (Option.value (Hashtbl.find_opt active r) ~default:0 + delta))
        bounds;
      of_attr ~source:"trace" ~unit_:"ns"
        {
          work = total_work;
          span = t_max - t_min;
          forks = 0;
          rwork;
          rspan = !rspan;
        }

(* ------------------------------------------------------------------ *)
(* What-if predictions. *)

type prediction = {
  region : string;
  work : int;
  span : int;
  work_pct : float;  (** share of total work *)
  span_pct : float;  (** share of total span *)
  predicted_span : int;  (** total span were this region [factor]× more parallel *)
  predicted_speedup : float;  (** T(P)/T'(P), Brent *)
}

let pct (part : int) (whole : int) : float =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

(* Brent completion time at [procs] processors (0 = infinitely many). *)
let btime ~(procs : int) ~(work : int) (span : int) : float =
  let s = float_of_int span in
  if procs <= 0 then s else (float_of_int work /. float_of_int procs) +. s

let predict ~(procs : int) ~(factor : float) (p : t) (r : region) : prediction
    =
  let factor = Float.max 1. factor in
  let shrunk =
    int_of_float (ceil (float_of_int r.span /. factor))
  in
  let predicted_span = p.total_span - r.span + shrunk in
  let t0 = btime ~procs ~work:p.total_work p.total_span in
  let t1 = btime ~procs ~work:p.total_work predicted_span in
  {
    region = r.name;
    work = r.work;
    span = r.span;
    work_pct = pct r.work p.total_work;
    span_pct = pct r.span p.total_span;
    predicted_span;
    predicted_speedup = (if t1 <= 0. then 1. else t0 /. t1);
  }

(** [what_if ~factor p name]: the prediction for one region, [None] if
    the profile has no such region. *)
let what_if ?(procs = 0) ~(factor : float) (p : t) (name : string) :
    prediction option =
  List.find_opt (fun (r : region) -> r.name = name) p.regions
  |> Option.map (predict ~procs ~factor p)

(** [rank p]: every region's prediction, best speedup first. *)
let rank ?(procs = 0) ?(factor = 8.) (p : t) : prediction list =
  List.map (predict ~procs ~factor p) p.regions
  |> List.sort (fun a b ->
         compare (b.predicted_speedup, b.span) (a.predicted_speedup, a.span))

(** Human-readable bottleneck report. *)
let report ?(procs = 0) ?(factor = 8.) ?(top = 0) (p : t) : string =
  let module T = Stats.Table in
  let fmt_units (n : int) : string =
    if p.unit_ = "ns" then Printf.sprintf "%.3f" (float_of_int n /. 1e6)
    else T.fmt_int_grouped n
  in
  let unit_name = if p.unit_ = "ns" then "ms" else "instr" in
  let preds = rank ~procs ~factor p in
  let preds =
    if top > 0 && List.length preds > top then List.filteri (fun i _ -> i < top) preds
    else preds
  in
  let rows =
    List.map
      (fun (pr : prediction) ->
        [
          pr.region;
          fmt_units pr.work;
          fmt_units pr.span;
          Printf.sprintf "%.1f%%" pr.work_pct;
          Printf.sprintf "%.1f%%" pr.span_pct;
          fmt_units pr.predicted_span;
          Printf.sprintf "%.3fx" pr.predicted_speedup;
        ])
      preds
  in
  let tbl =
    T.make
      ~title:
        (Printf.sprintf "what-if profile (%s): regions were %gx more parallel"
           p.source factor)
      ~header:
        [
          "region";
          "work (" ^ unit_name ^ ")";
          "span (" ^ unit_name ^ ")";
          "work%";
          "span%";
          "span' (" ^ unit_name ^ ")";
          (if procs <= 0 then "speedup@P=inf"
           else Printf.sprintf "speedup@P=%d" procs);
        ]
      rows
  in
  let parallelism =
    if p.total_span = 0 then 0.
    else float_of_int p.total_work /. float_of_int p.total_span
  in
  Printf.sprintf
    "total work %s %s, span %s %s, parallelism %.2f%s\n\n%s"
    (fmt_units p.total_work) unit_name (fmt_units p.total_span) unit_name
    parallelism
    (if p.forks > 0 then Printf.sprintf ", forks %d" p.forks else "")
    (T.render tbl)
