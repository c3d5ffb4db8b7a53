(** The benchmark's own spans: name, start, end, parent and ticket,
    recorded around each call into a layer, kept in memory, and written
    out once the run ends.

    A span is five ints in one growable array, so recording one is a
    few stores — cheap enough to stamp every request of a traced run.
    Spans of one request share its ticket; a root span has parent -1. *)

let fields = 5

type t = {
  mutable data : int array;  (** [name; start_ns; end_ns; parent; ticket] *)
  mutable count : int;
  names : (string, int) Hashtbl.t;
  mutable by_id : string array;
}

let create () : t =
  { data = Array.make (fields * 1024) 0; count = 0; names = Hashtbl.create 16; by_id = [||] }

let intern (t : t) (s : string) : int =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
      let id = Array.length t.by_id in
      Hashtbl.replace t.names s id;
      t.by_id <- Array.append t.by_id [| s |];
      id

let count (t : t) : int = t.count

(** [add t ~name ~parent ~ticket ~start_ns ~end_ns] records one span and
    returns its id. *)
let add (t : t) ~(name : int) ~(parent : int) ~(ticket : int)
    ~(start_ns : int) ~(end_ns : int) : int =
  if (t.count + 1) * fields > Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 (t.count * fields);
    t.data <- d
  end;
  let i = t.count * fields in
  t.data.(i) <- name;
  t.data.(i + 1) <- start_ns;
  t.data.(i + 2) <- end_ns;
  t.data.(i + 3) <- parent;
  t.data.(i + 4) <- ticket;
  t.count <- t.count + 1;
  t.count - 1

let name_of (t : t) (name : int) : string = t.by_id.(name)
let name (t : t) (id : int) : string = name_of t t.data.(id * fields)
let duration_ns (t : t) (id : int) : int = t.data.((id * fields) + 2) - t.data.((id * fields) + 1)
let parent (t : t) (id : int) : int = t.data.((id * fields) + 3)

(** [residuals t] maps every span that has children to its residual:
    its duration minus the summed durations of its direct children.
    When the children tile the parent the residual is 0; a positive
    residual is time no child accounts for. *)
let residuals (t : t) : (int * int) list =
  let child_sum = Hashtbl.create 1024 in
  for id = 0 to t.count - 1 do
    let p = parent t id in
    if p >= 0 then
      Hashtbl.replace child_sum p
        (duration_ns t id + Option.value (Hashtbl.find_opt child_sum p) ~default:0)
  done;
  Hashtbl.fold (fun p s acc -> (p, duration_ns t p - s) :: acc) child_sum []
  |> List.sort compare

(** Write every span as a tab-separated line
    [id parent ticket name start_ns end_ns], with a header. *)
let write (t : t) (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tticket\tname\tstart_ns\tend_ns\n";
      for id = 0 to t.count - 1 do
        let i = id * fields in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" id t.data.(i + 3)
          t.data.(i + 4) (name t id) t.data.(i + 1) t.data.(i + 2)
      done)
