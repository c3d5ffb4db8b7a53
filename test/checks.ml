(* Checks shared by the serving suites: a bounded live heap over many
   requests, and a call that must answer without waiting. *)

(* Live words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

(* Fail when the live heap grew by [bound] words or more since
   [before] (a {!live_words} reading) over [n] requests. *)
let check_flat ?(bound = 50_000) ~before ~n () =
  let grown = live_words () - before in
  if grown >= bound then
    Alcotest.failf "live heap grew %d words over %d requests (%.1f per request)"
      grown n (float_of_int grown /. float_of_int n)

(* [f ()] returns within a second: it answered without waiting. *)
let at_once what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Alcotest.(check bool) (what ^ " returns at once") true (Unix.gettimeofday () -. t0 < 1.);
  r
