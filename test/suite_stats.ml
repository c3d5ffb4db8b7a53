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

(* --- Chrome trace-event JSON --- *)

(* A minimal recursive-descent JSON validator — enough to certify that
   the emitter's output is well-formed without a JSON dependency.
   Exposed for the engine suite's trace-export test. *)
let json_is_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail := true
  and number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail := true
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail := true
              done
          | _ -> fail := true)
      | Some c when Char.code c < 0x20 -> fail := true
      | Some _ -> advance ()
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let again = ref true in
      while !again && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            again := false
        | _ ->
            fail := true;
            again := false
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let again = ref true in
      while !again && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            again := false
        | _ ->
            fail := true;
            again := false
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_validator () =
  check "object" true (json_is_valid {|{"a":1,"b":[true,null,"x"]}|});
  check "nested" true (json_is_valid {|[{"k":-1.5e3},{}]|});
  check "trailing garbage" false (json_is_valid "{}x");
  check "unterminated" false (json_is_valid {|{"a":1|});
  check "bare word" false (json_is_valid "hello")

let test_chrome_trace_emitter () =
  let module C = Stats.Chrome_trace in
  let events =
    [
      C.process_name ~pid:0 "p";
      C.thread_name ~pid:0 ~tid:3 "core 3";
      C.complete ~cat:"segment"
        ~args:[ ("work", C.Int 7); ("f", C.Float 1.25) ]
        ~name:"run" ~pid:0 ~tid:3 ~ts:1.5 ~dur:2.5 ();
      C.instant ~name:"beat \"x\"\n" ~pid:0 ~tid:3 ~ts:4.0 ();
    ]
  in
  let s = C.to_string events in
  check "valid JSON" true (json_is_valid s);
  check "escapes quotes and newlines" true
    (json_is_valid s
    && not
         (String.exists (fun c -> c = '\n') s));
  (* non-finite numbers must not leak into the document *)
  let s2 =
    C.to_string [ C.instant ~name:"x" ~pid:0 ~tid:0 ~ts:Float.nan () ]
  in
  check "nan clamped" true (json_is_valid s2)

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
    ] )
