(* perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--commit SHA]

   --trace 0: the named workload, untraced; prints the end-to-end
   metrics.  --trace 1: the microbenchmarks, the named workload traced
   for S seconds, and the other two workloads traced briefly, so every
   layer metric is reported on every workload; prints the per-layer
   metrics and writes each workload's spans to DIR.

   The last line of stdout is the result object; the line before it is
   the run's context (host, versions, seed, sample counts, quartiles).
   Exit status is 1 when any output failed its check. *)

open Perfbench_core
open Common

let usage =
  "perfbench --workload kernels|serve-open|net-closed --seed N --seconds S --trace 0|1 [--out DIR] [--commit SHA]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let workloads = [ "kernels"; "serve-open"; "net-closed" ]

(* seconds given to the workloads other than the named one in a traced
   run: enough for their layer numbers, not for their own bounds *)
let brief_s = 2.

let timed ~seed ~seconds = function
  | "kernels" -> Kernels.run_timed ~seconds
  | "serve-open" -> Serve_open.run_timed ~seed ~seconds
  | _ -> Net_closed.run_timed ~seed ~seconds

let traced ~seed ~seconds ~spans = function
  | "kernels" -> Kernels.run_traced ~seconds ~spans
  | "serve-open" -> Serve_open.run_traced ~seed ~seconds ~spans
  | _ -> Net_closed.run_traced ~seed ~seconds ~spans

let () =
  (* a peer that hangs up mid-write must surface as an error, not kill
     the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out_dir = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced layer run");
      ("--out", Arg.Set_string out_dir, "DIR where traced runs write their spans");
      ("--commit", Arg.Set_string commit, "SHA source revision, recorded in the context");
    ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  if not (List.mem !workload workloads) then die "unknown workload %S\n%s" !workload usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let seed = !seed and seconds = !seconds in
  let outs, micro_notes =
    if !trace = 0 then
      let o = timed ~seed ~seconds !workload in
      ([ (!workload, { o with metrics = o.metrics @ [ metric "peak_rss_mb" "MB" (peak_rss_mb ()) ] }) ], [])
    else begin
      let micro, notes = Micro.run () in
      let others = List.filter (( <> ) !workload) workloads in
      let outs =
        List.map
          (fun w ->
            let spans = Spans.create () in
            let o = traced ~seed ~seconds:(if w = !workload then seconds else brief_s) ~spans w in
            if !out_dir <> "" then Spans.write spans (Filename.concat !out_dir ("spans-" ^ w ^ ".tsv"));
            (w, o))
          (!workload :: others)
      in
      let attempted = List.fold_left (fun a (_, o) -> a + o.attempted) 0 outs in
      let failed = List.fold_left (fun a (_, o) -> a + o.failed) 0 outs in
      let summary =
        {
          metrics = micro @ [ metric ~n:attempted "error_frac" "ratio" (float_of_int failed /. float_of_int attempted) ];
          attempted = 0;
          failed = 0;
          notes = [];
        }
      in
      (outs @ [ ("micro", summary) ], notes)
    end
  in
  let metrics = List.concat_map (fun (_, o) -> o.metrics) outs in
  let attempted = List.fold_left (fun a (_, o) -> a + o.attempted) 0 outs in
  let failed = List.fold_left (fun a (_, o) -> a + o.failed) 0 outs in
  List.iter
    (fun m ->
      Printf.printf "%-36s %14.6g %-6s n=%d q1=%.6g q3=%.6g\n" m.name m.value m.unit_ m.n m.q1 m.q3)
    metrics;
  let context =
    Json.Obj
      [
        ("workload", Json.Str !workload);
        ("seed", Json.Int seed);
        ("seconds", Json.Num seconds);
        ("trace", Json.Int !trace);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str !commit);
        ("workloads", Json.Obj (List.map (fun (w, o) -> (w, Json.Obj o.notes)) outs));
        ("micro", Json.Obj micro_notes);
        ( "spread",
          Json.Obj
            (List.map
               (fun m -> (m.name, Json.Obj [ ("n", Json.Int m.n); ("q1", Json.Num m.q1); ("q3", Json.Num m.q3) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("context", context) ]));
  let correct = failed = 0 && attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
                   metrics) );
          ]));
  if not correct then exit 1
