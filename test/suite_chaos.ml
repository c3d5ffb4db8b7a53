(* Chaos hardening of the real multi-domain runtime (lib/par): seeded
   fault plans, the pay-for-use guarantee (an empty plan is counter-
   bit-identical to no plan at all), fault visibility through the
   event stream, the typed Injected raise, and cooperative
   cancellation through the session-wide token.

   Like suite_par, nothing here gates on host core counts: timing
   faults only stretch wall-clock, and every assertion is about
   counters, results, or typed exceptions. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Plan generation and per-worker state. *)

let test_plan_deterministic () =
  let a = Par.Chaos.random_plan ~seed:42 ~domains:4 () in
  let b = Par.Chaos.random_plan ~seed:42 ~domains:4 () in
  check "same seed, same plan" true (a = b);
  let c = Par.Chaos.random_plan ~seed:43 ~domains:4 () in
  check "different seed, different plan" true (a <> c);
  check "at least one fault" true (List.length a.faults >= 1);
  let d = Par.Chaos.random_plan ~raises:false ~seed:42 ~domains:8 () in
  check "raises:false draws no Raise" false (Par.Chaos.has_raise d)

let test_state_pay_for_use () =
  check "empty plan targets nobody" true
    (Par.Chaos.state_for Par.Chaos.empty ~domain:0 ~heart_s:1e-4 = None);
  let plan =
    {
      Par.Chaos.seed = 1;
      faults = [ { Par.Chaos.domain = 1; at_beat = 0; kind = Stall 2 } ];
    }
  in
  check "untargeted worker stays stateless" true
    (Par.Chaos.state_for plan ~domain:0 ~heart_s:1e-4 = None);
  check "targeted worker gets state" true
    (Par.Chaos.state_for plan ~domain:1 ~heart_s:1e-4 <> None)

let test_on_beat_mechanics () =
  let plan =
    {
      Par.Chaos.seed = 1;
      faults =
        [
          { Par.Chaos.domain = 0; at_beat = 0; kind = Stall 3 };
          { Par.Chaos.domain = 0; at_beat = 1; kind = Drop 2 };
        ];
    }
  in
  let st =
    match Par.Chaos.state_for plan ~domain:0 ~heart_s:1e-3 with
    | Some st -> st
    | None -> Alcotest.fail "targeted worker got no state"
  in
  (* beat 0: the stall fires, paying 3 beat periods *)
  let d0 = Par.Chaos.on_beat st in
  check_int "stall fires alone" 1 (List.length d0.fired);
  check "stall pause = 3 beats" true (abs_float (d0.pause_s -. 3e-3) < 1e-9);
  check "stall does not drop" false d0.drop;
  (* beat 1: the drop window opens and swallows this beat *)
  let d1 = Par.Chaos.on_beat st in
  check_int "drop fires" 1 (List.length d1.fired);
  check "beat 1 dropped" true d1.drop;
  (* beat 2: still inside the window, but nothing re-fires *)
  let d2 = Par.Chaos.on_beat st in
  check_int "window continuation fires nothing" 0 (List.length d2.fired);
  check "beat 2 dropped" true d2.drop;
  (* beat 3: window exhausted *)
  let d3 = Par.Chaos.on_beat st in
  check "beat 3 clean" false d3.drop;
  check "no pause left" true (d3.pause_s = 0.)

(* ------------------------------------------------------------------ *)
(* Whole-session properties. *)

let config ?chaos ?tracer ~domains () =
  {
    Par.Runtime.domains;
    heart_us = 0.;
    (* a beat at every poll: deterministic single-domain counters, and
       beat-indexed faults land immediately *)
    source = `Polling;
    chaos;
    tracer;
  }

(* a deterministic kernel: fill-and-fold through par_for, checked
   against its closed form *)
let kernel_n = 4096
let kernel_expected = kernel_n * (kernel_n - 1) / 2

let kernel () : int =
  let a = Array.make kernel_n 0 in
  Par.Runtime.par_for ~lo:0 ~hi:kernel_n (fun i -> a.(i) <- i);
  Array.fold_left ( + ) 0 a

let test_empty_plan_bit_identical () =
  (* the pay-for-use gate: chaos = Some empty must take the exact
     no-chaos hot path, so every worker counter comes out identical *)
  let run chaos =
    let v, st = Par.Runtime.run ~config:(config ?chaos ~domains:1 ()) kernel in
    check_int "kernel checksum" kernel_expected v;
    (* wall-clock fields can differ between runs; every counter may
       not *)
    { st.Par.Runtime.total with idle_ns = 0 }
  in
  let none = run None in
  let empty = run (Some Par.Chaos.empty) in
  check "counters bit-identical under empty plan" true (none = empty);
  (* spelled out for the poll counter, which the kernel must move *)
  check "polls counted" true (none.polls > 0);
  check_int "polls bit-identical under empty plan" none.polls empty.polls;
  check_int "no faults injected" 0 none.faults_injected;
  check_int "no cancels observed" 0 none.cancels

let test_timing_faults_keep_results () =
  (* stall + slow + drop pinned to the very first beats of BOTH
     domains: faults fire only from polls inside task bodies, and the
     main task may be stolen by either worker, so targeting a single
     domain would race against idle workers that never poll.  At least
     one domain runs the bulk of the kernel (thousands of strip polls),
     so at least its three faults fire; results must be untouched and
     every activation must surface as a Chaos event on a ring *)
  let faults_for d =
    [
      { Par.Chaos.domain = d; at_beat = 0; kind = Par.Chaos.Stall 2 };
      { Par.Chaos.domain = d; at_beat = 2; kind = Par.Chaos.Drop 3 };
      {
        Par.Chaos.domain = d;
        at_beat = 0;
        kind = Par.Chaos.Slow { factor = 2.0; beats = 4 };
      };
    ]
  in
  let plan = { Par.Chaos.seed = 7; faults = faults_for 0 @ faults_for 1 } in
  (* a beat at every poll: room for 8 events per iteration (beat,
     promotion, steal, task start and finish, join suspend and resume,
     fault) on each worker's ring *)
  let tr = Obs.Trace.create ~capacity:(8 * kernel_n) () in
  let v, st =
    Par.Runtime.run
      ~config:(config ~chaos:plan ~tracer:tr ~domains:2 ())
      kernel
  in
  check_int "checksum survives timing faults" kernel_expected v;
  check_int "the rings dropped nothing" 0 (Obs.Trace.total_dropped tr);
  let injected = st.Par.Runtime.total.faults_injected in
  check "the working domain's faults fired" true (injected >= 3);
  check_int "every fault visible as an event" injected
    (Suite_obs.ring_count tr (function Chaos _ -> true | _ -> false))

let test_raise_is_typed_and_survivable () =
  (* Raise on both domains at beat 0: whichever worker wins the race
     for the main task raises at its first strip poll (injection only
     happens inside task bodies, so the idle worker never fires) *)
  let plan =
    {
      Par.Chaos.seed = 9;
      faults =
        [
          { Par.Chaos.domain = 0; at_beat = 0; kind = Par.Chaos.Raise };
          { Par.Chaos.domain = 1; at_beat = 0; kind = Par.Chaos.Raise };
        ];
    }
  in
  (match Par.Runtime.run ~config:(config ~chaos:plan ~domains:2 ()) kernel with
  | _ -> Alcotest.fail "Raise plan completed without raising"
  | exception Par.Chaos.Injected { domain; _ } ->
      check "typed fault names a real domain" true (domain = 0 || domain = 1));
  (* the runtime is not poisoned: a fresh chaos-free session works *)
  let v, _ = Par.Runtime.run ~config:(config ~domains:2 ()) kernel in
  check_int "fresh session after injected raise" kernel_expected v

let test_cancel_pre_set () =
  (* a token cancelled before the work starts unwinds at the first
     poll, with the typed reason *)
  let tok = Par.Runtime.cancel_token () in
  Par.Runtime.cancel tok `Explicit;
  check "first reason wins" true (Par.Runtime.cancel_requested tok);
  Par.Runtime.cancel tok `Lease;
  check "reason is immutable" true
    (Par.Runtime.cancel_reason_of tok = Some `Explicit);
  match
    Par.Runtime.run ~config:(config ~domains:1 ()) (fun () ->
        Par.Runtime.set_cancel (Some tok);
        kernel ())
  with
  | _ -> Alcotest.fail "cancelled session completed"
  | exception Par.Runtime.Cancelled `Explicit -> ()

let test_cancel_cross_thread () =
  (* the watchdog shape: another thread cancels a session mid-flight;
     the polling loop unwinds with the typed reason and the runtime
     stays usable *)
  let tok = Par.Runtime.cancel_token () in
  let canceller =
    Thread.create
      (fun () ->
        Thread.delay 0.02;
        Par.Runtime.cancel tok `Deadline)
      ()
  in
  (match
     Par.Runtime.run ~config:(config ~domains:1 ()) (fun () ->
         Par.Runtime.set_cancel (Some tok);
         (* bounded spin: ~1 s worst case, normally unwound in ~20 ms *)
         for _ = 1 to 1000 do
           Unix.sleepf 0.001;
           Par.Runtime.poll ()
         done;
         Alcotest.fail "cancellation never observed")
   with
  | _ -> Alcotest.fail "cancelled session completed"
  | exception Par.Runtime.Cancelled `Deadline -> ());
  Thread.join canceller;
  let v, st = Par.Runtime.run ~config:(config ~domains:1 ()) kernel in
  check_int "fresh session after cancellation" kernel_expected v;
  check_int "fresh session saw no cancels" 0 st.Par.Runtime.total.cancels

let test_cancel_unwinds_par_for () =
  (* cancellation raised from inside a strip-mined par_for must unwind
     the whole tree (join-aware: promoted children drain first) and
     reach the caller as the same typed exception *)
  let tok = Par.Runtime.cancel_token () in
  let seen = Atomic.make 0 in
  match
    Par.Runtime.run ~config:(config ~domains:2 ()) (fun () ->
        Par.Runtime.set_cancel (Some tok);
        Par.Runtime.par_for ~lo:0 ~hi:1_000_000 (fun i ->
            Atomic.incr seen;
            if i = 100 then Par.Runtime.cancel tok `Explicit))
  with
  | _ -> Alcotest.fail "cancelled par_for ran to completion"
  | exception Par.Runtime.Cancelled `Explicit ->
      check "loop stopped early" true (Atomic.get seen < 1_000_000)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "plans are seed-deterministic" `Quick
        test_plan_deterministic;
      Alcotest.test_case "untargeted workers stay stateless" `Quick
        test_state_pay_for_use;
      Alcotest.test_case "on_beat stall/drop mechanics" `Quick
        test_on_beat_mechanics;
      Alcotest.test_case "empty plan is counter-bit-identical" `Quick
        test_empty_plan_bit_identical;
      Alcotest.test_case "timing faults keep results, emit events" `Quick
        test_timing_faults_keep_results;
      Alcotest.test_case "Raise surfaces typed and non-poisoning" `Quick
        test_raise_is_typed_and_survivable;
      Alcotest.test_case "pre-set cancel unwinds at first poll" `Quick
        test_cancel_pre_set;
      Alcotest.test_case "cross-thread cancel, typed reason" `Quick
        test_cancel_cross_thread;
      Alcotest.test_case "cancel unwinds a live par_for" `Quick
        test_cancel_unwinds_par_for;
    ] )
