(** plus-reduce-array: sum of a large float array — the paper's
    simplest iterative benchmark (100 million 64-bit doubles), whose
    entire difficulty is that the loop body is a single add, so any
    per-iteration scheduling cost dominates instantly. *)

(** Parallel sum by recursive range splitting down to [grain], with
    the executor's [fork2] (the parallel-reduction idiom the Cilk
    version expresses with a reducer). *)
let sum ?(grain = 8192) (module E : Exec.S) (a : float array) : float =
  let n = Array.length a in
  let rec go lo hi =
    if hi - lo <= grain then begin
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc := !acc +. a.(i)
      done;
      !acc
    end
    else begin
      let mid = (lo + hi) / 2 in
      let x = ref 0. and y = ref 0. in
      E.fork2 (fun () -> x := go lo mid) (fun () -> y := go mid hi);
      !x +. !y
    end
  in
  if n = 0 then 0. else go 0 n

let sum_serial (a : float array) : float = sum (module Exec.Serial) a

(** Deterministic input: [n] uniform draws, built in parallel. *)
let input (module E : Exec.S) ~(rng : Sim.Prng.t) ~(n : int) : float array =
  let a = Array.create_float n in
  Exec.par_draws (module E) ~rng ~per:1 ~n (fun r lo hi ->
      Sim.Prng.fill_float r a ~pos:lo ~len:(hi - lo));
  a
