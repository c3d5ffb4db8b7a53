(** Aligned text tables and CSV emitters for the benchmark harness
    output — every reproduced figure prints both a human-readable table
    and a machine-readable CSV block. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  rows : string list list;
}

let make ~(title : string) ~(header : string list) ?(aligns : align list = [])
    (rows : string list list) : t =
  let aligns =
    if aligns = [] then
      List.mapi (fun i _ -> if i = 0 then Left else Right) header
    else aligns
  in
  { title; header; aligns; rows }

let fmt_float ?(decimals = 2) (x : float) : string =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

(** Integers with thousands separators, for heartbeat-rate tables. *)
let fmt_int_grouped (n : int) : string =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render (t : t) : string =
  let cols = List.length t.header in
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < cols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure t.header;
  List.iter measure t.rows;
  let pad (a : align) (w : int) (s : string) : string =
    let d = w - String.length s in
    if d <= 0 then s
    else
      match a with
      | Left -> s ^ String.make d ' '
      | Right -> String.make d ' ' ^ s
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let a = try List.nth t.aligns i with _ -> Right in
          pad a widths.(i) cell)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (t.title ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row t.header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) t.rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

(** CSV rendering (RFC-4180-ish; quotes cells containing commas). *)
let to_csv (t : t) : string =
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let line cells = String.concat "," (List.map quote cells) in
  String.concat "\n" (line t.header :: List.map line t.rows)

let print (t : t) : unit = print_endline (render t)
