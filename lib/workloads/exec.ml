(** The parallel-execution interface benchmark kernels are written
    against, so the same kernel code runs serially, under the
    heartbeat runtime ({!Par.Runtime.Exec}), or under any other
    scheduler.

    This mirrors the paper's source level: [par_for] is [cilk_for]
    (with an optional reduction) and [fork2] is
    [cilk_spawn]/[cilk_sync]. *)

module type S = sig
  val par_for : lo:int -> hi:int -> (int -> unit) -> unit
  (** Execute [f i] for [lo ≤ i < hi]; iterations may run in any order
      and concurrently. *)

  val fork2 : (unit -> unit) -> (unit -> unit) -> unit
  (** Run both thunks, possibly in parallel; returns when both
      finished. *)
end

(** The serial executor: the baseline the paper normalises against. *)
module Serial : S = struct
  let par_for ~lo ~hi f =
    for i = lo to hi - 1 do
      f i
    done

  let fork2 a b =
    a ();
    b ()
end

(** Elements per block of {!par_blocks}: enough work per iteration that
    a block outweighs its loop overhead, like the kernels' grains.  A
    block is one [par_for] iteration of tens of µs to about a
    millisecond (a [Kmeans.create] block allocates 4096 points), so
    {!Par.Runtime}'s time-sized strips hold one block or a few: a beat
    is seen within about a block, and an input of a few dozen blocks
    still promotes. *)
let block = 4096

(** [par_blocks (module E) ~n body] runs [body lo hi] through
    [E.par_for] over the blocks [\[lo, hi)] of [\[0, n)], {!block}
    elements each, the last one ragged. *)
let par_blocks (module E : S) ~(n : int) (body : int -> int -> unit) : unit =
  E.par_for ~lo:0
    ~hi:((n + block - 1) / block)
    (fun b ->
      let lo = b * block in
      body lo (min n (lo + block)))

(** [par_draws (module E) ~rng ~per ~n body] builds an input of [n]
    elements that draws [per] values each from [rng], in parallel and
    bit-identical to a serial loop: {!par_blocks} runs [body r lo hi]
    with [r] = [rng] jumped [lo * per] draws ahead, so a body that draws
    [per] values per element in index order draws what the serial loop
    would.  [rng] is then skipped past all [n * per] draws.  Under
    {!Serial} this is the serial loop. *)
let par_draws (module E : S) ~(rng : Sim.Prng.t) ~(per : int) ~(n : int)
    (body : Sim.Prng.t -> int -> int -> unit) : unit =
  par_blocks (module E) ~n (fun lo hi ->
      body (Sim.Prng.jump rng (lo * per)) lo hi);
  Sim.Prng.skip rng (n * per)
