(** mergesort: the paper's mixed recursive-and-loop benchmark (20
    million ints, uniform and exponential inputs): the sort and the
    merge are recursive divide-and-conquer, and a parallel copy loop
    moves items between the buffer and the array — so it exercises
    both promotion of stack marks and promotion of loop ranges. *)

(** Deterministic inputs matching the paper's two distributions. *)
let uniform_input ~(rng : Sim.Prng.t) ~(n : int) : int array =
  Array.init n (fun _ -> Sim.Prng.int rng 1_000_000_000)

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

(* Serial sort of a segment: insertion sort for tiny ranges, the
   stdlib's heapsort ([Array.sort]) above that (leaves are up to
   [grain] elements, where insertion sort would be quadratic). *)
let seq_sort (a : int array) (lo : int) (hi : int) : unit =
  if hi - lo <= 32 then insertion_sort a lo hi
  else begin
    let seg = Array.sub a lo (hi - lo) in
    Array.sort compare seg;
    Array.blit seg 0 a lo (hi - lo)
  end

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
  if n1 + n2 <= grain then begin
    (* serial merge *)
    let i = ref lo1 and j = ref lo2 and k = ref dlo in
    while !i < hi1 && !j < hi2 do
      if src.(!i) <= src.(!j) then begin
        dst.(!k) <- src.(!i);
        incr i
      end
      else begin
        dst.(!k) <- src.(!j);
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
  end
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
      seq_sort a lo hi;
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
