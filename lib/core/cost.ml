(** Cost semantics of TPAL (Figure 28).

    Executions induce series–parallel cost graphs; [Work] and [Span]
    weight each parallel composition with the task-creation cost τ.

    Two representations are provided:

    - {!graph}, the literal grammar of Figure 28, convenient for tests
      and algebraic reasoning on small programs;
    - {!summary}, a constant-space monoidal digest (work, span, fork
      count) that {!Eval} accumulates on large executions, where
      materialising a graph with one vertex per instruction would be
      prohibitive.

    The two agree: [summarize ~tau g] equals the summary accumulated by
    composing with {!seq} and {!par} in the same shape as [g] (this is a
    property test in the suite). *)

type graph =
  | Zero  (** the empty graph [0] *)
  | One  (** the one-vertex graph [1] *)
  | Seq of graph * graph  (** sequential composition [g1 · g2] *)
  | Par of graph * graph  (** parallel composition [g1 ∥ g2] *)

(* Fold over a graph without native recursion so that graphs with one
   vertex per instruction — deeply nested in either direction — cannot
   overflow the OCaml stack. *)
let fold (type a) ~(zero : a) ~(one : a) ~(seq : a -> a -> a)
    ~(par : a -> a -> a) (g : graph) : a =
  let module W = struct
    type item = Eval of graph | Combine of (a -> a -> a)
  end in
  let rec go (todo : W.item list) (vals : a list) : a =
    match (todo, vals) with
    | [], [ v ] -> v
    | [], _ -> assert false (* one value per completed graph *)
    | W.Eval Zero :: todo, vals -> go todo (zero :: vals)
    | W.Eval One :: todo, vals -> go todo (one :: vals)
    | W.Eval (Seq (g1, g2)) :: todo, vals ->
        go (W.Eval g1 :: W.Eval g2 :: W.Combine seq :: todo) vals
    | W.Eval (Par (g1, g2)) :: todo, vals ->
        go (W.Eval g1 :: W.Eval g2 :: W.Combine par :: todo) vals
    | W.Combine op :: todo, v2 :: v1 :: vals -> go todo (op v1 v2 :: vals)
    | W.Combine _ :: _, _ -> assert false
  in
  go [ W.Eval g ] []

(** [work ~tau g] — [Work] of Figure 28: total vertices, plus τ per
    parallel composition. *)
let work ~(tau : int) (g : graph) : int =
  fold ~zero:0 ~one:1 ~seq:(fun a b -> a + b)
    ~par:(fun a b -> tau + a + b)
    g

(** [span ~tau g] — [Span] of Figure 28: critical-path length, each
    parallel composition adding τ before the longer branch. *)
let span ~(tau : int) (g : graph) : int =
  fold ~zero:0 ~one:1 ~seq:(fun a b -> a + b)
    ~par:(fun a b -> tau + max a b)
    g

(** Number of parallel compositions (forks) in the graph. *)
let forks (g : graph) : int =
  fold ~zero:0 ~one:0 ~seq:(fun a b -> a + b) ~par:(fun a b -> 1 + a + b) g

(** Number of [One] vertices — the instruction count of the execution. *)
let vertices (g : graph) : int =
  fold ~zero:0 ~one:1 ~seq:(fun a b -> a + b) ~par:(fun a b -> a + b) g

let rec pp ppf = function
  | Zero -> Fmt.string ppf "0"
  | One -> Fmt.string ppf "1"
  | Seq (a, b) -> Fmt.pf ppf "(%a · %a)" pp a pp b
  | Par (a, b) -> Fmt.pf ppf "(%a ∥ %a)" pp a pp b

let rec equal a b =
  match (a, b) with
  | Zero, Zero | One, One -> true
  | Seq (a1, a2), Seq (b1, b2) | Par (a1, a2), Par (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | (Zero | One | Seq _ | Par _), _ -> false

(** Constant-space digest of a cost graph for a fixed τ. *)
type summary = { work : int; span : int; forks : int }

let zero_summary : summary = { work = 0; span = 0; forks = 0 }
let one_summary : summary = { work = 1; span = 1; forks = 0 }

(** Sequential composition of summaries ([g1 · g2]). *)
let seq_summary (a : summary) (b : summary) : summary =
  { work = a.work + b.work; span = a.span + b.span; forks = a.forks + b.forks }

(** Parallel composition of summaries ([g1 ∥ g2]) at task-creation
    cost [tau]. *)
let par_summary ~(tau : int) (a : summary) (b : summary) : summary =
  { work = tau + a.work + b.work;
    span = tau + max a.span b.span;
    forks = 1 + a.forks + b.forks }

(** [summarize ~tau g] digests a literal graph. *)
let summarize ~(tau : int) (g : graph) : summary =
  fold ~zero:zero_summary ~one:one_summary ~seq:seq_summary
    ~par:(par_summary ~tau) g

(** Average parallelism [work / span] — the figure of merit heartbeat
    scheduling tries to preserve while bounding fork overhead. *)
let parallelism (s : summary) : float =
  if s.span = 0 then 0. else float_of_int s.work /. float_of_int s.span

(** Brent's bound: a greedy [p]-processor schedule completes within
    [work/p + span] steps. *)
let brent_bound ~(procs : int) (s : summary) : float =
  (float_of_int s.work /. float_of_int procs) +. float_of_int s.span

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "work=%d span=%d forks=%d" s.work s.span s.forks
