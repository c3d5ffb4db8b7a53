(* Differential fuzzing driver: generate random TPAL programs and
   cross-check them across the sequential evaluator, the discrete-event
   simulator (all interrupt mechanisms, several core counts, optional
   fault injection), and the real heartbeat runtime, Par.Runtime
   (--par lists its domain counts, 1 = serial with promotion; --no-par
   skips it).

     tpal_fuzz --count 1000 --seed 1
     tpal_fuzz --count 200 --cores 1,4 --mech ipi --no-faults
     tpal_fuzz --count 200 --chaos --minimize
     tpal_fuzz --seed 42 --count 1 --minimize --out test/corpus

   Exits non-zero when any divergence is found; with --minimize each
   divergent program is first shrunk to a locally-minimal reproducer
   and saved under --out as a .tpal file with replay metadata. *)

let parse_mechs (s : string) : Sim.Interrupts.mech list =
  match String.lowercase_ascii s with
  | "all" -> [ Sim.Interrupts.Ping_thread; Papi; Nautilus_ipi ]
  | "ping" | "ping-thread" -> [ Sim.Interrupts.Ping_thread ]
  | "papi" -> [ Sim.Interrupts.Papi ]
  | "ipi" | "nautilus" -> [ Sim.Interrupts.Nautilus_ipi ]
  | other -> Fmt.failwith "unknown mechanism %S (all|ping|papi|ipi)" other

let parse_cores (s : string) : int list =
  List.map
    (fun c ->
      match int_of_string_opt c with
      | Some n when n >= 1 -> n
      | _ -> Fmt.failwith "bad core count %S (expected e.g. 1,4,15)" c)
    (String.split_on_char ',' s)

let run ~seed ~count ~cores ~mech ~faults ~chaos ~chaos_par ~par ~serve
    ~minimize ~out ~progress =
  match
    { Fuzz.Diff.cores = parse_cores cores; mechs = parse_mechs mech; faults;
      chaos; par = (if par = "" then [] else parse_cores par); chaos_par }
  with
  | exception Failure msg ->
      Fmt.epr "tpal_fuzz: %s@." msg;
      2
  | cfg ->
  (* the serving-layer oracle: the same program submitted through the
     multi-tenant pool (admission -> DRR -> EDF -> warm session) must
     match the sequential evaluator bit for bit *)
  let serve_domains = if serve then [ 1; 2 ] else [] in
  let serve_check p ~outputs =
    if serve_domains = [] then []
    else Serve.Serve_exec.check ~domains:serve_domains p ~outputs
  in
  let divergent = ref 0 in
  for i = 0 to count - 1 do
    let s = seed + i in
    let g = Fuzz.Gen.generate ~seed:s in
    let ds =
      Fuzz.Diff.check_gen ~cfg g @ serve_check g.prog ~outputs:g.outputs
    in
    if ds <> [] then begin
      incr divergent;
      Fmt.pr "@[<v>== seed %d: %d divergence(s) ==@,%a@]@." s (List.length ds)
        (Fmt.list (fun ppf (d : Fuzz.Diff.divergence) ->
             Fmt.pf ppf "  [%s] %s" d.oracle d.detail))
        ds;
      if minimize then begin
        let oracle = (List.hd ds).oracle in
        let has_prefix p o =
          String.length o >= String.length p && String.sub o 0 (String.length p) = p
        in
        let still_fails p =
          let ds =
            if has_prefix "serve" oracle then
              serve_check p ~outputs:g.outputs
            else Fuzz.Diff.check ~cfg ~seed:s p ~outputs:g.outputs
          in
          List.exists (fun (d : Fuzz.Diff.divergence) -> d.oracle = oracle) ds
        in
        let small = Fuzz.Shrink.minimize ~still_fails g.prog in
        let prefix =
          if has_prefix "chaos-par" oracle then "chaos_par_"
          else if has_prefix "chaos" oracle then "chaos_"
          else if has_prefix "serve" oracle then "serve_"
          else ""
        in
        let path =
          Fuzz.Corpus.save ~prefix ~dir:out
            { Fuzz.Corpus.seed = s; oracle; outputs = g.outputs; prog = small }
        in
        Fmt.pr "  shrunk reproducer: %s@." path
      end
    end
    else if progress && (i + 1) mod 100 = 0 then
      Fmt.pr "  %d/%d ok@." (i + 1) count
  done;
  if !divergent = 0 then begin
    Fmt.pr "fuzz: %d program(s), no divergences@." count;
    0
  end
  else begin
    Fmt.pr "fuzz: %d/%d program(s) divergent@." !divergent count;
    1
  end

open Cmdliner

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base seed; program $(i,i) uses seed+$(i,i).")

let count =
  Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate and check.")

let cores =
  Arg.(value & opt string "1,4,15" & info [ "cores" ] ~docv:"P,P,…" ~doc:"Simulated core counts.")

let mech =
  Arg.(value & opt string "all" & info [ "mech" ] ~docv:"MECH" ~doc:"Interrupt mechanisms: all, ping, papi or ipi.")

let no_faults =
  Arg.(value & flag & info [ "no-faults" ] ~doc:"Skip the fault-injection battery.")

let chaos =
  Arg.(value & flag & info [ "chaos" ]
    ~doc:"Also run each program under a random crash/stall/slow-core \
          schedule and check the recovery oracles (completion, work \
          conservation, Brent bound at the surviving core count, \
          determinism).")

let chaos_par =
  Arg.(value & flag & info [ "chaos-par" ]
    ~doc:"Also run each program on the real multi-domain runtime under \
          a seeded fault plan (beat stalls, slowdowns, dropped beats, \
          injected raises) and require bit-identical outputs for \
          timing-only plans and the typed fault for raising ones.")

let par =
  Arg.(value & opt string "1,2,4"
    & info [ "par" ] ~docv:"D,D,…"
        ~doc:"Domain counts for the multi-domain runtime executor.")

let no_par =
  Arg.(value & flag & info [ "no-par" ] ~doc:"Skip the multi-domain runtime executor.")

let serve =
  Arg.(value & flag & info [ "serve" ]
    ~doc:"Also submit each program through the multi-tenant execution \
          server (admission, DRR, EDF, warm session) and require \
          bit-identical results.")

let minimize =
  Arg.(value & flag & info [ "minimize" ] ~doc:"Shrink divergent programs and save reproducers.")

let out =
  Arg.(value & opt string "test/corpus" & info [ "out" ] ~docv:"DIR" ~doc:"Directory for shrunk reproducers.")

let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")

let cmd =
  let doc = "differential fuzzing of the TPAL evaluator, simulator and heartbeat runtime" in
  Cmd.v
    (Cmd.info "tpal_fuzz" ~doc)
    Term.(
      const
        (fun seed count cores mech no_faults chaos chaos_par par no_par serve
             minimize out quiet ->
          run ~seed ~count ~cores ~mech ~faults:(not no_faults) ~chaos
            ~chaos_par
            ~par:(if no_par then "" else par)
            ~serve ~minimize ~out ~progress:(not quiet))
      $ seed $ count $ cores $ mech $ no_faults $ chaos $ chaos_par $ par
      $ no_par $ serve $ minimize $ out $ quiet)

let () = exit (Cmd.eval' cmd)
