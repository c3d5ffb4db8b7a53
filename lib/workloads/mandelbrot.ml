(** mandelbrot: escape-time rendering of a square window of the
    Mandelbrot set (the paper renders 4k × 4k).  Iteration counts vary
    wildly across pixels — interior points burn [max_iter] iterations,
    exterior ones escape quickly — making the nested pixel loops
    irregular. *)

type image = { width : int; height : int; pixels : int array }

(** Escape-time iteration count for the pixel in column [col] of a row
    at height [cy]: the first [i] at which [|z_i|² > 4], or [max_iter],
    for [cx = x0 +. (dx *. float_of_int col)].  A loop over local float
    refs, which the compiler keeps unboxed, where a recursion would box
    [x] and [y] at every step.  [cx] is computed here, not passed in,
    because a float argument to an out-of-line function is boxed: the
    caller's floats are each boxed once per window or per row, not
    once per pixel. *)
let escape_col ~(max_iter : int) ~(x0 : float) ~(dx : float) (col : int)
    (cy : float) : int =
  let cx = x0 +. (dx *. float_of_int col) in
  let x = ref 0. and y = ref 0. and i = ref 0 and escaped = ref false in
  while (not !escaped) && !i < max_iter do
    let x2 = !x *. !x and y2 = !y *. !y in
    if x2 +. y2 > 4.0 then escaped := true
    else begin
      let x' = x2 -. y2 +. cx in
      y := (2.0 *. !x *. !y) +. cy;
      x := x';
      incr i
    end
  done;
  if !escaped then !i else max_iter

(** Escape-time iteration count for point (cx, cy).  [cx +. 0. *. 0.]
    is [cx] except that [-0.] becomes [0.], which the iteration cannot
    see: [cx] enters only through [x2 -. y2 +. cx], and a difference of
    two squares is never [-0.]. *)
let escape_time ~(max_iter : int) (cx : float) (cy : float) : int =
  escape_col ~max_iter ~x0:cx ~dx:0. 0 cy

(** Render the window [(x0,y0)–(x1,y1)], parallel over rows with a
    nested parallel loop over columns (the paper's structure). *)
let render ?(x0 = -2.0) ?(y0 = -1.5) ?(x1 = 1.0) ?(y1 = 1.5)
    ?(max_iter = 100) (module E : Exec.S) ~(width : int) ~(height : int) () :
    image =
  let pixels = Array.make (width * height) 0 in
  let dx = (x1 -. x0) /. float_of_int width in
  let dy = (y1 -. y0) /. float_of_int height in
  E.par_for ~lo:0 ~hi:height (fun row ->
      let cy = y0 +. (dy *. float_of_int row) in
      E.par_for ~lo:0 ~hi:width (fun col ->
          pixels.((row * width) + col) <- escape_col ~max_iter ~x0 ~dx col cy));
  { width; height; pixels }

let render_serial ~width ~height () : image =
  render (module Exec.Serial) ~width ~height ()

(** Checksum for cross-scheduler validation. *)
let checksum (img : image) : int = Array.fold_left ( + ) 0 img.pixels

(** Per-pixel cost in cycles for the simulator model: ~8 cycles per
    escape iteration (a couple of multiplies, adds and a compare). *)
let pixel_cost ?(cycles_per_iter = 8) ~(max_iter : int) ~(width : int)
    ~(height : int) (row : int) (col : int) : int =
  let x0 = -2.0 and y0 = -1.5 and x1 = 1.0 and y1 = 1.5 in
  let dx = (x1 -. x0) /. float_of_int width in
  let dy = (y1 -. y0) /. float_of_int height in
  let cy = y0 +. (dy *. float_of_int row) in
  8 + (cycles_per_iter * escape_col ~max_iter ~x0 ~dx col cy)
