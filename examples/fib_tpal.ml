(* fib at the assembly level: the paper's Appendix-B program with an
   explicit call stack, promotion-ready marks, prmsplit promotion of
   the oldest frame, and joink continuations — traced step by step —
   next to the same recursion under the heartbeat runtime at one
   domain.  Exits 1 when that run differs from serial.

   Run with:  dune exec examples/fib_tpal.exe *)

let () =
  (* 1. Abstract machine, serial. *)
  let serial = { Tpal.Eval.default_options with heart = None } in
  (match Tpal.Programs.run_fib ~options:serial ~n:20 () with
  | Ok (f, fin) ->
      Fmt.pr "fib(20) serial: %d (%d instructions)@." f fin.stats.instructions
  | Error e -> Fmt.epr "error: %a@." Tpal.Machine_error.pp e);

  (* 2. Abstract machine with heartbeats: stack-mark promotions. *)
  let beating = { Tpal.Eval.default_options with heart = Some 100 } in
  (match Tpal.Programs.run_fib ~options:beating ~n:20 () with
  | Ok (f, fin) ->
      Fmt.pr
        "fib(20) heartbeat: %d | promotions=%d forks=%d joins=%d work=%d \
         span=%d@."
        f fin.stats.promotions fin.stats.forks fin.stats.join_continues
        fin.cost.work fin.cost.span
  | Error e -> Fmt.epr "error: %a@." Tpal.Machine_error.pp e);

  (* 3. A short trace around the first promotion (Appendix D style). *)
  Fmt.pr "@.--- first promotion of fib(6), heart=40 ---@.";
  let entries, _ =
    Tpal.Trace.collect ~watch_regs:[ "n"; "f"; "top" ] ~limit:2000
      ~options:{ Tpal.Eval.default_options with heart = Some 40 }
      Tpal.Programs.fib
      [ ("n", Tpal.Value.Vint 6) ]
  in
  let around_promotion =
    let rec go i = function
      | [] -> []
      | (e : Tpal.Trace.entry) :: rest ->
          if String.length e.what > 4 && String.sub e.what 0 4 = "[try" then
            List.filteri (fun j _ -> j < 14) ((e : Tpal.Trace.entry) :: rest)
          else go (i + 1) rest
    in
    go 0 entries
  in
  print_endline (Tpal.Trace.to_string around_promotion);

  (* 4. The same recursion under the real heartbeat runtime. *)
  let rec fib fork2 n =
    if n < 2 then n
    else begin
      let x = ref 0 and y = ref 0 in
      fork2
        (fun () -> x := fib fork2 (n - 1))
        (fun () -> y := fib fork2 (n - 2));
      !x + !y
    end
  in
  let f, { Par.Runtime.total = st; _ } =
    Par.Runtime.run
      ~config:
        { Par.Runtime.default_config with
          domains = 1;
          heart_us = 50.;
          source = `Polling }
      (fun () -> fib Par.Runtime.fork2 30)
  in
  Fmt.pr
    "@.fib(30) heartbeat runtime: %d | beats=%d promotions=%d joins=%d@." f
    st.beats st.promotions st.joins;
  if f <> fib Workloads.Exec.Serial.fork2 30 then exit 1
