open Loseq_core
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)
let sample = [ ev 0 "a"; ev 5 "b"; ev 5 "c"; ev 12 "a" ]

let event_testable =
  Alcotest.testable Trace.pp_event (fun (x : Trace.event) y ->
      Name.equal x.name y.name && x.time = y.time)

let test_csv_roundtrip () =
  match Trace_io.of_csv (Trace_io.to_csv sample) with
  | Ok trace -> Alcotest.(check (list event_testable)) "roundtrip" sample trace
  | Error msg -> Alcotest.fail msg

let test_csv_comments_and_blanks () =
  match Trace_io.of_csv "# captured by loseq\n\n0,a\n\n7,b\n" with
  | Ok trace -> Alcotest.(check int) "two events" 2 (Trace.length trace)
  | Error msg -> Alcotest.fail msg

let test_csv_errors () =
  let expect_error src =
    match Trace_io.of_csv src with
    | Ok _ -> Alcotest.failf "accepted %S" src
    | Error _ -> ()
  in
  expect_error "not-a-row\n";
  expect_error "xx,a\n";
  expect_error "0,bad name\n";
  expect_error "5,a\n1,b\n"

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "loseq" ".csv" in
  Trace_io.save_csv ~path sample;
  let result = Trace_io.load_csv path in
  Sys.remove path;
  match result with
  | Ok trace -> Alcotest.(check int) "events" 4 (Trace.length trace)
  | Error msg -> Alcotest.fail msg

let test_load_missing () =
  match Trace_io.load_csv "/nonexistent.csv" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let expect_error_mentioning sub result =
  match result with
  | Ok _ -> Alcotest.failf "accepted (expected error mentioning %S)" sub
  | Error msg ->
      let contains =
        let n = String.length sub and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg sub)
        true contains

let test_csv_error_line_numbers () =
  (* the comment and blank still count as lines: the offending row is
     line 4 *)
  expect_error_mentioning "line 4"
    (Trace_io.of_csv "# header\n0,a\n\nnot-a-row\n");
  expect_error_mentioning "line 3" (Trace_io.of_csv "0,a\n5,b\n1,c\n");
  expect_error_mentioning "line 2" (Trace_io.of_csv "0,a\n-3,b\n")

let test_validator_shared_messages () =
  (* the same validator backs CSV and any other reader: same message
     shape, position supplied by the caller *)
  let v = Trace_io.Validator.create () in
  (match Trace_io.Validator.check v ~pos:"record 7" ~time:5 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "last" 5 (Trace_io.Validator.last v);
  expect_error_mentioning "record 8"
    (Trace_io.Validator.check v ~pos:"record 8" ~time:3);
  (* a rejected timestamp does not advance the validator *)
  Alcotest.(check int) "last unchanged" 5 (Trace_io.Validator.last v)

(* [line] as line [lineno] of a stream read by a {!Trace_io.Csv}
   without a validator (the bounded-reorder streaming mode), after
   [lineno - 1] blank lines: the event it yields, if any. *)
let parse_csv_line ~lineno line =
  let csv = Trace_io.Csv.create () in
  let event = ref None in
  let emit sid time =
    event := Some { Trace.name = Trace_io.Csv.name csv sid; time }
  in
  match
    Result.bind
      (Trace_io.Csv.feed csv (String.make (lineno - 1) '\n' ^ line) ~emit)
      (fun () -> Trace_io.Csv.finish csv ~emit)
  with
  | Ok () -> Ok !event
  | Error _ as e -> e

let test_parse_csv_line_permissive () =
  (* without a validator, out-of-order lines parse fine... *)
  (match parse_csv_line ~lineno:2 "3,late" with
  | Ok (Some e) -> Alcotest.(check int) "time" 3 e.Trace.time
  | Ok None -> Alcotest.fail "skipped"
  | Error msg -> Alcotest.fail msg);
  (* ...but garbage still does not *)
  expect_error_mentioning "line 9" (parse_csv_line ~lineno:9 "x,y,z,");
  expect_error_mentioning "line 9" (parse_csv_line ~lineno:9 "-1,a");
  (* The exact result of every edge the line grammar has: padding,
     CRLF, the literal forms [int_of_string] accepts, overflow, empty
     fields, a bad name, comments, the header and blanks.  A name error
     wins over a timestamp error on the same line. *)
  let render = function
    | Ok None -> "skip"
    | Ok (Some (e : Trace.event)) ->
        Printf.sprintf "%s@%d" (Name.to_string e.name) e.time
    | Error msg -> "error: " ^ msg
  in
  List.iter
    (fun (line, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%S" line)
        expected
        (render (parse_csv_line ~lineno:9 line)))
    [
      (" 3 , a ", "a@3");
      ("3,a\r", "a@3");
      ("0x1F,a", "a@31");
      ("1_000,a", "a@1000");
      ("+5,a", "a@5");
      ("-1,a", "error: line 9: negative timestamp -1");
      ( "99999999999999999999,a",
        {|error: line 9: bad timestamp "99999999999999999999"|} );
      ("5,", "error: line 9: Name.v: empty name");
      (",a", {|error: line 9: bad timestamp ""|});
      ("x,y,z,", {|error: line 9: Name.v: invalid character ',' in "y,z,"|});
      ("3,a b", {|error: line 9: Name.v: invalid character ' ' in "a b"|});
      ("#c", "skip");
      ("time,name", "skip");
      ("", "skip");
    ]

let test_merge_interleaves () =
  let cpu = [ ev 0 "wr"; ev 10 "wr" ] in
  let ipu = [ ev 5 "rd"; ev 10 "irq" ] in
  let merged = Trace_io.merge [ cpu; ipu ] in
  Alcotest.(check (list string)) "order" [ "wr"; "rd"; "wr"; "irq" ]
    (List.map Name.to_string (Trace.names merged));
  Alcotest.(check bool) "chronological" true (Trace.is_chronological merged)

let test_merge_tie_stability () =
  let first = [ ev 5 "x" ] and second = [ ev 5 "y" ] in
  Alcotest.(check (list string)) "leftmost wins ties" [ "x"; "y" ]
    (List.map Name.to_string (Trace.names (Trace_io.merge [ first; second ])))

let test_window () =
  Alcotest.(check int) "inclusive bounds" 2
    (Trace.length (Trace_io.window ~from:5 ~until:5 sample));
  Alcotest.(check int) "all" 4
    (Trace.length (Trace_io.window ~from:0 ~until:100 sample));
  Alcotest.(check int) "none" 0
    (Trace.length (Trace_io.window ~from:50 ~until:60 sample))

let test_rename () =
  let renamed = Trace_io.rename [ ("a", "set_imgAddr") ] sample in
  Alcotest.(check (list string)) "mapped"
    [ "set_imgAddr"; "b"; "c"; "set_imgAddr" ]
    (List.map Name.to_string (Trace.names renamed))

let test_rename_bad_target () =
  match Trace_io.rename [ ("a", "bad name") ] sample with
  | (_ : Trace.t) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_counts_and_duration () =
  Alcotest.(check (list (pair string int)))
    "counts"
    [ ("a", 2); ("b", 1); ("c", 1) ]
    (List.map
       (fun (n, c) -> (Name.to_string n, c))
       (Trace_io.counts sample));
  Alcotest.(check int) "duration" 12 (Trace_io.duration sample);
  Alcotest.(check int) "empty duration" 0 (Trace_io.duration [])

let qcheck_csv_roundtrip =
  qtest ~count:300 "CSV round-trips generated traces"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let* seed = int_bound 100000 in
      return (p, seed))
    (fun (p, seed) -> Printf.sprintf "%s seed=%d" (Pattern.to_string p) seed)
    (fun (p, seed) ->
      let trace = Generate.valid (Random.State.make [| seed |]) p in
      match Trace_io.of_csv (Trace_io.to_csv trace) with
      | Ok trace' -> trace = trace'
      | Error _ -> false)

let qcheck_merge_chronological =
  qtest ~count:300 "merging chronological traces stays chronological"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let* s1 = int_bound 100000 in
      let* s2 = int_bound 100000 in
      return (p, s1, s2))
    (fun (p, _, _) -> Pattern.to_string p)
    (fun (p, s1, s2) ->
      let t1 = Generate.valid (Random.State.make [| s1 |]) p in
      let t2 = Generate.valid (Random.State.make [| s2 |]) p in
      let merged = Trace_io.merge [ t1; t2 ] in
      Trace.is_chronological merged
      && Trace.length merged = Trace.length t1 + Trace.length t2)

let () =
  Alcotest.run "trace-io"
    [
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "comments" `Quick test_csv_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "file roundtrip" `Quick test_csv_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_load_missing;
          Alcotest.test_case "error line numbers" `Quick
            test_csv_error_line_numbers;
          Alcotest.test_case "shared validator" `Quick
            test_validator_shared_messages;
          Alcotest.test_case "permissive line parse" `Quick
            test_parse_csv_line_permissive;
          qcheck_csv_roundtrip;
        ] );
      ( "toolkit",
        [
          Alcotest.test_case "merge" `Quick test_merge_interleaves;
          Alcotest.test_case "merge ties" `Quick test_merge_tie_stability;
          Alcotest.test_case "window" `Quick test_window;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename bad target" `Quick
            test_rename_bad_target;
          Alcotest.test_case "counts/duration" `Quick
            test_counts_and_duration;
          qcheck_merge_chronological;
        ] );
    ]
