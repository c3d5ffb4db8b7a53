(** The one JSON value type, printer and parser: trajectories, Chrome
    traces and histogram digests are printed here, and [bench --append]
    parses a trajectory here before printing it again.

    The printer writes a non-finite float as [null], a finite one as the
    shortest decimal that reads back as the same float with a [.] or an
    exponent (Python's [repr]), and an int exactly.  A value that holds
    no list goes on one line, a list puts one element per line, an object
    that holds a list one member per line: a printed document prints
    back byte-identical.  The parser is strict RFC 8259; a number with
    neither fraction nor exponent is an [Int], and one out of range is
    refused.  String bytes are kept as they are; [\u] escapes decode to
    UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_string (buf : Buffer.t) (s : string) : unit =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The fewest significant digits [p] whose "%.{p-1}e" reads back as [x]
   (17 always do), positional for decimal exponents in [-4, 16). *)
let float_text (x : float) : string =
  let sci p = Printf.sprintf "%.*e" (p - 1) x in
  let rec shortest p =
    if p >= 17 || Float.equal (float_of_string (sci p)) x then p
    else shortest (p + 1)
  in
  let p = shortest 1 in
  let exp = int_of_string (List.nth (String.split_on_char 'e' (sci p)) 1) in
  if exp < -4 || exp >= 16 then sci p
  else
    let s = Printf.sprintf "%.*f" (max 0 (p - 1 - exp)) x in
    if String.contains s '.' then s else s ^ ".0"

(* true when [v] holds no list at any depth: it prints on one line *)
let rec flat = function
  | List _ -> false
  | Obj kvs -> List.for_all (fun (_, v) -> flat v) kvs
  | _ -> true

let rec add (buf : Buffer.t) (indent : int) (v : t) : unit =
  let str = Buffer.add_string buf in
  let newline i = str ("\n" ^ String.make i ' ') in
  (* [xs] between [op] and [cl]: on one line joined by ", ", or one per
     line at [indent + 2] *)
  let elements op cl ~one_line add_elt xs =
    str op;
    List.iteri
      (fun i x ->
        if i > 0 then str (if one_line then ", " else ",");
        if not one_line then newline (indent + 2);
        add_elt x)
      xs;
    if not one_line then newline indent;
    str cl
  in
  match v with
  | Null -> str "null"
  | Bool b -> str (string_of_bool b)
  | Int i -> str (string_of_int i)
  | Float x -> str (if Float.is_finite x then float_text x else "null")
  | Str s -> add_string buf s
  | List vs -> elements "[" "]" ~one_line:(vs = []) (add buf (indent + 2)) vs
  | Obj kvs ->
      let one_line = flat v in
      let inner = if one_line then indent else indent + 2 in
      elements "{" "}" ~one_line
        (fun (k, v) -> add_string buf k; str ": "; add buf inner v)
        kvs

(** [to_string v] — the document, with no trailing newline. *)
let to_string (v : t) : string =
  let buf = Buffer.create 1024 in
  add buf 0 v;
  Buffer.contents buf

(** [of_string s] parses one document; [Error] names the byte offset
    and what was wrong there. *)
let of_string (s : string) : (t, string) result =
  let exception Fail of int * string in
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  (* past the end reads as NUL, which no rule accepts *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () = let c = peek () in incr pos; c in
  let eat c = peek () = c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if String.contains " \t\r\n" (peek ()) then (incr pos; ws ()) in
  let digits () =
    let p0 = !pos in
    while peek () >= '0' && peek () <= '9' do incr pos done;
    if !pos = p0 then fail "expected a digit"
  in
  let number () =
    let p0 = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' && (digits (); true) in
    let exp = (eat 'e' || eat 'E') && (ignore (eat '+' || eat '-'); digits (); true) in
    let text = String.sub s p0 (!pos - p0) in
    match (frac || exp, int_of_string_opt text, float_of_string text) with
    | false, Some i, _ -> Int i
    | true, _, x when Float.is_finite x -> Float x
    | _ -> fail "number out of range"
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "_" in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some u when not (String.contains h '_') -> u
    | _ -> fail "bad \\u escape"
  in
  (* a \u escape's code point: a high surrogate must pair with a low one *)
  let code_point () =
    let u = hex4 () in
    if u land 0xFC00 = 0xD800 && eat '\\' && eat 'u' then
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + ((u land 0x3FF) lsl 10) + (lo land 0x3FF)
    else if u land 0xF800 = 0xD800 then fail "unpaired surrogate"
    else u
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
          | _ -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control character or end of input in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  (* [item ()] repeated, comma-separated, up to [close] *)
  let items close item =
    let rec more acc =
      let acc = item () :: acc in
      ws ();
      if eat ',' then more acc else (expect close; List.rev acc)
    in
    ws ();
    if eat close then [] else more []
  in
  let word w v =
    let k = String.length w in
    if !pos + k <= n && String.sub s !pos k = w then (pos := !pos + k; v)
    else fail "unexpected token"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (items '}' (fun () ->
          ws ();
          let k = str () in
          ws (); expect ':'; (k, value ())))
    | '[' -> incr pos; List (items ']' value)
    | '"' -> Str (str ())
    | '-' | '0' .. '9' -> number ()
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> fail "unexpected character or end of input"
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
