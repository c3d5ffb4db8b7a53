(** Compressed-sparse-row matrices, with the paper's three input
    classes (§4.1):

    - {!random}: uniformly random rows, maximum row length 100;
    - {!powerlaw}: Zipf-distributed row lengths — the largest row holds
      a few percent of all non-zeros, stressing irregular nested
      parallelism;
    - {!arrowhead}: non-zeros on the diagonal, first row and first
      column — "particularly challenging for task scheduling"
      [Tessem 2013] because one row dwarfs all others.

    The [spmv] kernel is the classic CSR sparse-matrix × dense-vector
    product, parallel over rows with a nested (parallelisable)
    reduction per row. *)

type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;  (** length [nrows + 1] *)
  col_idx : int array;  (** length [nnz] *)
  values : float array;  (** length [nnz] *)
}

let nnz (m : t) : int = m.row_ptr.(m.nrows)
let row_length (m : t) (r : int) : int = m.row_ptr.(r + 1) - m.row_ptr.(r)

(** Build a CSR matrix from per-row (column, value) lists; the lists
    need not be sorted — they are sorted and deduplicated here. *)
let of_rows ~(ncols : int) (rows : (int * float) list array) : t =
  let nrows = Array.length rows in
  let clean =
    Array.map
      (fun entries ->
        let sorted =
          List.sort_uniq (fun (c1, _) (c2, _) -> compare c1 c2) entries
        in
        sorted)
      rows
  in
  let row_ptr = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    row_ptr.(r + 1) <- row_ptr.(r) + List.length clean.(r)
  done;
  let total = row_ptr.(nrows) in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  Array.iteri
    (fun r entries ->
      List.iteri
        (fun k (c, v) ->
          if c < 0 || c >= ncols then invalid_arg "Csr.of_rows: column range";
          col_idx.(row_ptr.(r) + k) <- c;
          values.(row_ptr.(r) + k) <- v)
        entries)
    clean;
  { nrows; ncols; row_ptr; col_idx; values }

(** Uniformly random sparse matrix: every row non-empty, row lengths
    uniform in [1, max_row_len] (the paper's random matrix has maximum
    column size 100). *)
let random ~(rng : Sim.Prng.t) ~(nrows : int) ~(ncols : int)
    ~(max_row_len : int) : t =
  let rows =
    Array.init nrows (fun _ ->
        let len = 1 + Sim.Prng.int rng max_row_len in
        List.init len (fun _ ->
            (Sim.Prng.int rng ncols, Sim.Prng.float rng)))
  in
  of_rows ~ncols rows

(** Power-law matrix: row lengths follow a Zipf distribution with
    exponent [s]; the head rows are orders of magnitude longer than
    the tail (the paper's powerlaw matrix has a single row holding 3 %
    of all non-zeros).

    Each row draws a rank, which sets its length, then its entries,
    each a value and then a column; columns are sorted and
    deduplicated as by {!of_rows}.  The build makes two passes over
    flat arrays.  A serial pass draws the ranks and {!Sim.Prng.skip}s
    each row's entries, which gives every row its offset in the stream
    and in the arrays.  Then {!Exec.par_blocks} over rows draws the
    entries, each block from its own stream position, so the matrix is
    the same under any executor.  A one-entry row is stored in place;
    a longer row goes through {!of_rows}' list sort, and the arrays
    are compacted only if that sort dropped a duplicate column. *)
let powerlaw ?(s = 1.9) (module E : Exec.S) ~(rng : Sim.Prng.t) ~(nrows : int)
    ~(ncols : int) ~(max_row_len : int) : t =
  (* rank-based lengths: rank r gets ~ max_row_len / r^(s-1);
     randomised ranks keep heavy rows scattered *)
  let length rank =
    max 1
      (int_of_float
         (float_of_int max_row_len /. (float_of_int rank ** (s -. 1.))))
  in
  (* for s >= 1 the length never grows with the rank, so one binary
     search finds the first rank of length 1 and [**] runs only below
     it *)
  let first_short =
    if not (s >= 1.) then nrows + 1
    else begin
      let lo = ref 1 and hi = ref (nrows + 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if length mid = 1 then hi := mid else lo := mid + 1
      done;
      !lo
    end
  in
  let base = Sim.Prng.jump rng 0 in
  (* pass 1: [drawn.(r)] entries are drawn before row r *)
  let drawn = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    let rank = 1 + Sim.Prng.int rng nrows in
    let len = min (if rank >= first_short then 1 else length rank) ncols in
    Sim.Prng.skip rng (2 * len);
    drawn.(r + 1) <- drawn.(r) + len
  done;
  let total = drawn.(nrows) in
  let col_idx = Array.make total 0 and values = Array.create_float total in
  let set_col k c =
    if c < 0 || c >= ncols then invalid_arg "Csr.powerlaw: column range";
    col_idx.(k) <- c
  in
  let dropped = ref false in
  (* pass 2: row r's rank is draw r + 2·drawn.(r) of [base] *)
  Exec.par_blocks (module E) ~n:nrows (fun lo hi ->
      let g = Sim.Prng.jump base (lo + (2 * drawn.(lo))) in
      for r = lo to hi - 1 do
        Sim.Prng.skip g 1;
        let p = drawn.(r) and len = drawn.(r + 1) - drawn.(r) in
        if len = 1 then begin
          (* value, then column: the order in which ocamlopt evaluates
             the tuple below.  A one-slot fill, where [Sim.Prng.float]
             would box the value. *)
          Sim.Prng.fill_float g values ~pos:p ~len:1;
          set_col p (Sim.Prng.int g ncols)
        end
        else if len > 1 then begin
          let entries =
            List.init len (fun _ -> (Sim.Prng.int g ncols, Sim.Prng.float g))
            |> List.sort_uniq (fun (c1, _) (c2, _) -> compare c1 c2)
          in
          List.iteri
            (fun k (c, v) ->
              set_col (p + k) c;
              values.(p + k) <- v)
            entries;
          (* a dropped duplicate leaves its slot marked free *)
          let kept = List.length entries in
          for k = p + kept to p + len - 1 do
            col_idx.(k) <- -1
          done;
          if kept < len then dropped := true
        end
      done);
  if not !dropped then { nrows; ncols; row_ptr = drawn; col_idx; values }
  else begin
    let row_ptr = Array.make (nrows + 1) 0 and kept = ref 0 in
    for r = 0 to nrows - 1 do
      for k = drawn.(r) to drawn.(r + 1) - 1 do
        if col_idx.(k) >= 0 then begin
          col_idx.(!kept) <- col_idx.(k);
          values.(!kept) <- values.(k);
          incr kept
        end
      done;
      row_ptr.(r + 1) <- !kept
    done;
    {
      nrows;
      ncols;
      row_ptr;
      col_idx = Array.sub col_idx 0 !kept;
      values = Array.sub values 0 !kept;
    }
  end

(** Arrowhead matrix: dense diagonal, dense first row, dense first
    column. *)
let arrowhead ~(n : int) : t =
  let rows =
    Array.init n (fun r ->
        if r = 0 then List.init n (fun c -> (c, 1.0))
        else [ (0, 1.0); (r, 1.0) ])
  in
  of_rows ~ncols:n rows

(** [spmv (module E) m x y] computes [y = m · x], parallel over rows.
    Long rows (≥ [row_grain]) compute their dot product with a nested
    parallel reduction, mirroring the paper's nested-loop spmv. *)
let spmv ?(row_grain = 4096) (module E : Exec.S) (m : t) (x : float array)
    (y : float array) : unit =
  if Array.length x < m.ncols || Array.length y < m.nrows then
    invalid_arg "Csr.spmv: vector size";
  E.par_for ~lo:0 ~hi:m.nrows (fun r ->
      let lo = m.row_ptr.(r) and hi = m.row_ptr.(r + 1) in
      if hi - lo < row_grain then begin
        let acc = ref 0. in
        for k = lo to hi - 1 do
          acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
        done;
        y.(r) <- !acc
      end
      else begin
        (* nested parallel reduction over a long row *)
        let rec sum lo hi =
          if hi - lo < row_grain then begin
            let acc = ref 0. in
            for k = lo to hi - 1 do
              acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
            done;
            !acc
          end
          else begin
            let mid = (lo + hi) / 2 in
            let a = ref 0. and b = ref 0. in
            E.fork2 (fun () -> a := sum lo mid) (fun () -> b := sum mid hi);
            !a +. !b
          end
        in
        y.(r) <- sum lo hi
      end)

(** Serial reference for cross-checking. *)
let spmv_serial (m : t) (x : float array) : float array =
  let y = Array.make m.nrows 0. in
  spmv (module Exec.Serial) m x y;
  y
