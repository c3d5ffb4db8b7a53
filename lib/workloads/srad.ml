(** srad: Speckle-Reducing Anisotropic Diffusion, ported after the
    Rodinia benchmark the paper uses (4k × 4k input matrix).

    Each iteration makes two sweeps over the image: first computing
    the diffusion coefficient from local gradients and the global
    statistics of a reference window, then updating the image by the
    divergence of the coefficient-weighted gradients.  Both sweeps are
    parallel over rows with nested column loops. *)

type t = {
  rows : int;
  cols : int;
  image : float array;  (** rows × cols, row-major *)
  coeff : float array;  (** diffusion coefficient c *)
  dn : float array;
  ds : float array;
  dw : float array;
  de : float array;
}

(** A [rows × cols] image of [exp] of uniform draws, built in
    parallel. *)
let create (module E : Exec.S) ~(rng : Sim.Prng.t) ~(rows : int) ~(cols : int)
    : t =
  let n = rows * cols in
  let image = Array.create_float n in
  Exec.par_draws (module E) ~rng ~per:1 ~n (fun r lo hi ->
      Sim.Prng.fill_float r image ~pos:lo ~len:(hi - lo);
      for i = lo to hi - 1 do
        image.(i) <- exp image.(i)
      done);
  {
    rows;
    cols;
    image;
    coeff = Array.make n 0.;
    dn = Array.make n 0.;
    ds = Array.make n 0.;
    dw = Array.make n 0.;
    de = Array.make n 0.;
  }

let idx (st : t) r c = (r * st.cols) + c

(* Rodinia clamps neighbours at the borders. *)
let north _st r = if r = 0 then 0 else r - 1
let south st r = if r = st.rows - 1 then r else r + 1
let west _ c = if c = 0 then 0 else c - 1
let east st c = if c = st.cols - 1 then c else c + 1

(** One SRAD iteration with diffusion parameter [lambda]. *)
let iteration ?(lambda = 0.5) (module E : Exec.S) (st : t) : unit =
  (* global statistics over the whole image (Rodinia uses a reference
     window; whole-image statistics keep the kernel deterministic
     without changing its parallel structure) *)
  let n = st.rows * st.cols in
  let sum = ref 0. and sum2 = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. st.image.(i);
    sum2 := !sum2 +. (st.image.(i) *. st.image.(i))
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  let q0s = var /. (mean *. mean) in
  (* sweep 1: gradients and diffusion coefficient *)
  E.par_for ~lo:0 ~hi:st.rows (fun r ->
      for c = 0 to st.cols - 1 do
        let k = idx st r c in
        let jc = st.image.(k) in
        let dn = st.image.(idx st (north st r) c) -. jc in
        let ds = st.image.(idx st (south st r) c) -. jc in
        let dw = st.image.(idx st r (west st c)) -. jc in
        let de = st.image.(idx st r (east st c)) -. jc in
        st.dn.(k) <- dn;
        st.ds.(k) <- ds;
        st.dw.(k) <- dw;
        st.de.(k) <- de;
        let g2 =
          ((dn *. dn) +. (ds *. ds) +. (dw *. dw) +. (de *. de)) /. (jc *. jc)
        in
        let l = (dn +. ds +. dw +. de) /. jc in
        let num = (0.5 *. g2) -. (1.0 /. 16.0 *. l *. l) in
        let den = 1.0 +. (0.25 *. l) in
        let qsqr = num /. (den *. den) in
        let d = (qsqr -. q0s) /. (q0s *. (1.0 +. q0s)) in
        let c' = 1.0 /. (1.0 +. d) in
        st.coeff.(k) <- Float.max 0.0 (Float.min 1.0 c')
      done);
  (* sweep 2: divergence update *)
  E.par_for ~lo:0 ~hi:st.rows (fun r ->
      for c = 0 to st.cols - 1 do
        let k = idx st r c in
        let cn = st.coeff.(k) in
        let cs = st.coeff.(idx st (south st r) c) in
        let cw = st.coeff.(k) in
        let ce = st.coeff.(idx st r (east st c)) in
        let d =
          (cn *. st.dn.(k)) +. (cs *. st.ds.(k)) +. (cw *. st.dw.(k))
          +. (ce *. st.de.(k))
        in
        st.image.(k) <- st.image.(k) +. (0.25 *. lambda *. d)
      done)

let run (module E : Exec.S) (st : t) ~(iterations : int) : unit =
  for _ = 1 to iterations do
    iteration (module E) st
  done

(** Checksum for cross-scheduler validation: the sum of the image, in
    index order.  It is exact, not rounded: every sweep writes each
    pixel from the same operands under any schedule, so the image is
    bit-identical across executors. *)
let checksum (st : t) : float = Array.fold_left ( +. ) 0. st.image
