(** mergesort: the paper's mixed recursive-and-loop benchmark (20
    million ints, uniform and exponential inputs): the sort and the
    merge are recursive divide-and-conquer, and a parallel copy loop
    moves items between the buffer and the array — so it exercises
    both promotion of stack marks and promotion of loop ranges.

    A leaf of at most [grain] elements is sorted serially and in place
    by {!seq_sort}, monomorphic on [int], with the leaf's own slice of
    the buffer as scratch; its merge passes and {!merge_par}'s base
    case share the one serial {!merge}. *)

(** Deterministic inputs matching the paper's two distributions; the
    uniform one is built in parallel. *)
let uniform_input (module E : Exec.S) ~(rng : Sim.Prng.t) ~(n : int) :
    int array =
  let a = Array.make n 0 in
  Exec.par_draws (module E) ~rng ~per:1 ~n (fun r lo hi ->
      Sim.Prng.fill_int r a ~pos:lo ~len:(hi - lo) 1_000_000_000);
  a

let exponential_input ~(rng : Sim.Prng.t) ~(n : int) : int array =
  Array.init n (fun _ ->
      int_of_float (Sim.Prng.exponential rng ~mean:100_000.))

let insertion_sort (a : int array) (lo : int) (hi : int) : unit =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(** Serial merge of [src[lo1,hi1)] and [src[lo2,hi2)] into
    [dst[dlo..)]; [src] and [dst] must be different arrays. *)
let merge (src : int array) (lo1 : int) (hi1 : int) (lo2 : int) (hi2 : int)
    (dst : int array) (dlo : int) : unit =
  let i = ref lo1 and j = ref lo2 and k = ref dlo in
  while !i < hi1 && !j < hi2 do
    let x = src.(!i) and y = src.(!j) in
    if x <= y then begin
      dst.(!k) <- x;
      incr i
    end
    else begin
      dst.(!k) <- y;
      incr j
    end;
    incr k
  done;
  while !i < hi1 do
    dst.(!k) <- src.(!i);
    incr i;
    incr k
  done;
  while !j < hi2 do
    dst.(!k) <- src.(!j);
    incr j;
    incr k
  done

let run_len = 32

(** [seq_sort a buf lo hi] sorts the leaf [a[lo,hi)] in place, using
    [buf[lo,hi)] as scratch — the slice of [sort]'s buffer that no
    other task touches while the leaf runs.  It insertion-sorts runs of
    [run_len], then makes bottom-up {!merge} passes that alternate
    between [a] and [buf], with one copy back when the pass count is
    odd.  Nothing is allocated and every comparison is an inline [int]
    one, where [Array.sort compare] would need a copy of the leaf and
    make a polymorphic compare call per comparison: leaves are most of
    the serial sort's time (DESIGN.md §9). *)
let seq_sort (a : int array) (buf : int array) (lo : int) (hi : int) : unit =
  let r = ref lo in
  while !r < hi do
    insertion_sort a !r (min hi (!r + run_len));
    r := !r + run_len
  done;
  let src = ref a and dst = ref buf and width = ref run_len in
  while !width < hi - lo do
    let w = !width and s = !src and d = !dst in
    let l = ref lo in
    while !l < hi do
      let m = min hi (!l + w) in
      let h = min hi (m + w) in
      merge s !l m m h d !l;
      l := h
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != a then
    for i = lo to hi - 1 do
      a.(i) <- buf.(i)
    done

(* Binary search for the first index in [lo,hi) with a.(i) >= key. *)
let lower_bound (a : int array) (lo : int) (hi : int) (key : int) : int =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(** Parallel merge of [src[lo1,hi1)] and [src[lo2,hi2)] into
    [dst[dlo..)]: recursive splitting on the larger half's median, as
    in the classic work-efficient parallel merge. *)
let rec merge_par (module E : Exec.S) ~(grain : int) (src : int array)
    (lo1 : int) (hi1 : int) (lo2 : int) (hi2 : int) (dst : int array)
    (dlo : int) : unit =
  let n1 = hi1 - lo1 and n2 = hi2 - lo2 in
  if n1 + n2 <= grain then merge src lo1 hi1 lo2 hi2 dst dlo
  else if n1 >= n2 then begin
    let mid1 = (lo1 + hi1) / 2 in
    let mid2 = lower_bound src lo2 hi2 src.(mid1) in
    let dmid = dlo + (mid1 - lo1) + (mid2 - lo2) in
    E.fork2
      (fun () -> merge_par (module E) ~grain src lo1 mid1 lo2 mid2 dst dlo)
      (fun () -> merge_par (module E) ~grain src mid1 hi1 mid2 hi2 dst dmid)
  end
  else merge_par (module E) ~grain src lo2 hi2 lo1 hi1 dst dlo

(** Parallel copy loop — the paper notes this is the one place
    mergesort uses loop parallelism rather than recursion. *)
let copy_par (module E : Exec.S) (src : int array) (dst : int array)
    (lo : int) (hi : int) : unit =
  E.par_for ~lo ~hi (fun i -> dst.(i) <- src.(i))

(** [sort (module E) a] sorts [a] in place. *)
let sort ?(grain = 2048) (module E : Exec.S) (a : int array) : unit =
  let n = Array.length a in
  let buf = Array.make n 0 in
  (* sort a[lo,hi) leaving the result in [a] when [to_a], in [buf]
     otherwise *)
  let rec go lo hi ~to_a =
    if hi - lo <= grain then begin
      seq_sort a buf lo hi;
      if not to_a then copy_par (module E) a buf lo hi
    end
    else begin
      let mid = (lo + hi) / 2 in
      E.fork2
        (fun () -> go lo mid ~to_a:(not to_a))
        (fun () -> go mid hi ~to_a:(not to_a));
      let src = if to_a then buf else a in
      let dst = if to_a then a else buf in
      merge_par (module E) ~grain src lo mid mid hi dst lo
    end
  in
  if n > 1 then go 0 n ~to_a:true

let sorted (a : int array) : bool =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

(** Checksum for cross-scheduler validation (order-sensitive). *)
let checksum (a : int array) : int =
  let acc = ref 0 in
  Array.iteri (fun i x -> acc := !acc + (x lxor (i * 1_000_003))) a;
  !acc
