(** The parallel-program intermediate representation benchmarks are
    written in.

    This is the simulator-facing counterpart of TPAL's source level: a
    fork-join program whose loops are {e splittable iteration ranges}
    and whose recursive calls {e advertise} their second branch for
    promotion — exactly the two shapes TPAL promotes (remaining loop
    iterations, and the oldest promotion-ready stack mark).

    Leaves carry their cost in virtual CPU cycles; workload modules
    calibrate those costs to the arithmetic of the kernels they model. *)

(** Per-iteration cost of a flat loop.  [Const] enables bulk execution
    of many iterations in one step; [Fn] supports irregular loops
    (e.g. power-law sparse rows) at one simulator step per iteration. *)
type cost = Const of int | Fn of (int -> int)

type t =
  | Leaf of int  (** opaque sequential work of the given cycles *)
  | Seq of t list  (** sequential composition *)
  | For of { n : int; cost : cost }
      (** a parallel-for over [n] iterations whose body is straight-line
          work; promotable/splittable by iteration range *)
  | For_nested of { n : int; body : int -> t }
      (** a parallel-for whose iterations are themselves parallel
          programs (nested parallelism); splittable by outer range *)
  | Spawn2 of (unit -> t) * (unit -> t)
      (** binary fork-join ([cilk_spawn] + [cilk_sync]); thunked so
          that recursive programs unfold lazily during execution *)

let leaf c = Leaf c
let seq l = Seq l
let for_const ~n ~cycles = For { n; cost = Const cycles }
let for_fn ~n f = For { n; cost = Fn f }
let for_nested ~n body = For_nested { n; body }
let spawn2 a b = Spawn2 (a, b)

(** Total algorithm work in cycles (no scheduling overheads) —
    the serial execution time of the program.  Iterative so that deep
    [Spawn2] recursions (e.g. a million-node task tree) cannot
    overflow the OCaml stack. *)
let work (p : t) : int =
  let total = ref 0 in
  let stack = ref [ p ] in
  let push x = stack := x :: !stack in
  let rec drain () =
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        (match x with
        | Leaf c -> total := !total + c
        | Seq l -> List.iter push l
        | For { n; cost = Const k } -> total := !total + (n * k)
        | For { n; cost = Fn f } ->
            for i = 0 to n - 1 do
              total := !total + f i
            done
        | For_nested { n; body } ->
            for i = 0 to n - 1 do
              push (body i)
            done
        | Spawn2 (a, b) ->
            push (a ());
            push (b ()));
        drain ()
  in
  drain ();
  !total

(** Critical-path length in cycles under unbounded parallelism with
    free forks: loops contribute their largest iteration, spawns the
    larger branch.  Recursive with explicit bounded depth via
    continuation list — adequate for the tree shapes of the
    benchmarks (depth is logarithmic or linear-small). *)
let rec span (p : t) : int =
  match p with
  | Leaf c -> c
  | Seq l -> List.fold_left (fun acc x -> acc + span x) 0 l
  | For { n; cost = Const k } -> if n = 0 then 0 else k
  | For { n; cost = Fn f } ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        if f i > !m then m := f i
      done;
      ignore n;
      !m
  | For_nested { n; body } ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        let s = span (body i) in
        if s > !m then m := s
      done;
      !m
  | Spawn2 (a, b) -> max (span (a ())) (span (b ()))

(** Average parallelism [work / span]. *)
let parallelism (p : t) : float =
  let s = span p in
  if s = 0 then 0. else float_of_int (work p) /. float_of_int s
