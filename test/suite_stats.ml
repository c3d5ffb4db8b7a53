(* Tests for the statistics helpers and the table renderer. *)

let checkf = Alcotest.(check (float 1e-9))
let check = Alcotest.(check bool)

let test_mean_geomean () =
  checkf "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  checkf "geomean" 2. (Stats.geomean [ 1.; 4. ]);
  checkf "geomean of equal values" 7. (Stats.geomean [ 7.; 7.; 7. ]);
  check "geomean rejects nonpositive" true
    (Float.is_nan (Stats.geomean [ 1.; 0. ]));
  check "empty mean is nan" true (Float.is_nan (Stats.mean []))

let test_speedup_normalized () =
  checkf "speedup" 4. (Stats.speedup ~baseline:8. 2.);
  checkf "normalized" 2. (Stats.normalized ~baseline:4. 8.);
  checkf "percent change" 50. (Stats.percent_change ~from_:2. 3.)

let test_stddev () =
  checkf "constant series" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  checkf "known value" (sqrt 2.) (Stats.stddev [ 1.; 3. ] *. 1.0)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean between min and max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.01 100.))
    (fun xs ->
      let g = Stats.geomean xs in
      g >= Stats.min_l xs -. 1e-9 && g <= Stats.max_l xs +. 1e-9)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"AM-GM inequality" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.01 100.))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let test_table_render () =
  let t =
    Stats.Table.make ~title:"T" ~header:[ "name"; "v" ]
      [ [ "a"; "1.00" ]; [ "long-name"; "2.50" ] ]
  in
  let s = Stats.Table.render t in
  check "contains title" true (String.length s > 0 && String.sub s 0 1 = "T");
  check "contains rows" true
    (List.exists
       (fun line -> String.length line > 0 && String.contains line 'a')
       (String.split_on_char '\n' s))

let test_table_csv () =
  let t =
    Stats.Table.make ~title:"T" ~header:[ "a"; "b" ]
      [ [ "x,y"; "1" ]; [ "plain"; "2" ] ]
  in
  let csv = Stats.Table.to_csv t in
  check "quotes commas" true
    (List.exists
       (fun l -> l = "\"x,y\",1")
       (String.split_on_char '\n' csv))

let test_grouped_ints () =
  Alcotest.(check string) "grouping" "1,234,567" (Stats.Table.fmt_int_grouped 1_234_567);
  Alcotest.(check string) "small" "42" (Stats.Table.fmt_int_grouped 42);
  Alcotest.(check string) "negative" "-1,000" (Stats.Table.fmt_int_grouped (-1000))

let test_fmt_float_nan () =
  Alcotest.(check string) "nan renders as dash" "-" (Stats.Table.fmt_float nan)

let test_empty_extrema () =
  (* all four summary helpers agree on empty input: nan, never ±inf *)
  check "empty mean is nan" true (Float.is_nan (Stats.mean []));
  check "empty geomean is nan" true (Float.is_nan (Stats.geomean []));
  check "empty min is nan" true (Float.is_nan (Stats.min_l []));
  check "empty max is nan" true (Float.is_nan (Stats.max_l []));
  (* and still behave on non-empty samples *)
  checkf "min" 1. (Stats.min_l [ 3.; 1.; 2. ]);
  checkf "max" 3. (Stats.max_l [ 3.; 1.; 2. ])

(* --- JSON value type, printer and parser --- *)

module J = Stats.Json

let parses (s : string) : bool = Result.is_ok (J.of_string s)

let test_json_validator () =
  check "object" true (parses {|{"a":1,"b":[true,null,"x"]}|});
  check "nested" true (parses {|[{"k":-1.5e3},{}]|});
  check "trailing garbage" false (parses "{}x");
  check "unterminated" false (parses {|{"a":1|});
  check "bare word" false (parses "hello");
  check "truncated document" false (parses "{\"trajectory\": [\n  {\"a\": 1},\n");
  check "trailing comma" false (parses {|{"a": [1, 2,]}|});
  check "bare nan" false (parses {|{"p50_ms": nan}|});
  check "escapes decode" true
    (J.of_string {|"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00"|} = Ok (J.Str "\"\\/\b\012\n\r\t\xc3\xa9\xf0\x9f\x98\x80"));
  check "lone surrogate" false (parses {|"\ud83d"|})

let test_chrome_trace_emitter () =
  let module C = Stats.Chrome_trace in
  let events =
    [
      C.process_name ~pid:0 "p";
      C.thread_name ~pid:0 ~tid:3 "core 3";
      C.complete ~cat:"segment"
        ~args:[ ("work", J.Int 7); ("f", J.Float 1.25) ]
        ~name:"run" ~pid:0 ~tid:3 ~ts:1.5 ~dur:2.5 ();
      C.instant ~name:"beat \"x\"\n" ~pid:0 ~tid:3 ~ts:4.0 ();
    ]
  in
  let s = C.to_string events in
  (* names with quotes and newlines survive *)
  check "events read back" true
    (J.of_string s
    = Ok (J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.Str "ns") ]))

let gen_json : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* any byte, with quotes, brackets and backslashes more often *)
  let str = string_size ~gen:(oneof [ oneofl [ '"'; '\\'; '['; '{'; ',' ]; char ]) (int_bound 12) in
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool; map (fun s -> J.Str s) str;
        map (fun n -> J.Int n) (oneof [ int; oneofl [ min_int; max_int ] ]);
        map (fun x -> J.Float (if Float.is_finite x then x else 0.)) float;
        map (fun n -> J.Float (float_of_int n)) small_signed_int (* integral *) ]
  in
  let sub self n = list_size (int_bound 4) (self (n / 3)) in
  sized @@ fix (fun self n ->
    if n <= 1 then leaf
    else
      frequency
        [ (2, leaf); (1, map (fun l -> J.List l) (sub self n));
          (1, map (fun kvs -> J.Obj kvs) (list_size (int_bound 4) (pair str (self (n / 3))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print then parse is the identity" ~count:500
    (QCheck.make ~print:J.to_string gen_json)
    (fun v -> J.of_string (J.to_string v) = Ok v)

let test_json_printer () =
  let check_str = Alcotest.(check string) in
  (* the shortest decimal that reads back, always a float; ints exact;
     non-finite floats null *)
  List.iter
    (fun (v, want) -> check_str want want (J.to_string v))
    [ (J.Float 20000., "20000.0"); (J.Float 0.1, "0.1"); (J.Float 1e16, "1e+16");
      (J.Int 4581323701851014233, "4581323701851014233");
      (J.List [ J.Float Float.nan; J.Float infinity ], "[\n  null,\n  null\n]") ];
  (* no list: one line; a list: one element per line; an object holding
     a list: one member per line.  It prints back byte-identical. *)
  let doc = {|{
  "t": [
    {"n": 1, "p50_ms": null, "o": {"x": 2.5}},
    []
  ],
  "label": "a]b \"q\""
}|} in
  match J.of_string doc with
  | Ok v -> check_str "reprint is byte-identical" doc (J.to_string v)
  | Error e -> Alcotest.fail e

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean & geomean" `Quick test_mean_geomean;
      Alcotest.test_case "speedup helpers" `Quick test_speedup_normalized;
      Alcotest.test_case "stddev" `Quick test_stddev;
      QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
      QCheck_alcotest.to_alcotest prop_geomean_le_mean;
      Alcotest.test_case "table rendering" `Quick test_table_render;
      Alcotest.test_case "csv escaping" `Quick test_table_csv;
      Alcotest.test_case "grouped integers" `Quick test_grouped_ints;
      Alcotest.test_case "nan formatting" `Quick test_fmt_float_nan;
      Alcotest.test_case "empty-sample extrema are nan" `Quick
        test_empty_extrema;
      Alcotest.test_case "json validator" `Quick test_json_validator;
      Alcotest.test_case "chrome trace emitter" `Quick
        test_chrome_trace_emitter;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "json printer" `Quick test_json_printer;
    ] )
