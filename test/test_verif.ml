open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_testutil

let test_tap_records_with_time () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  Kernel.spawn k (fun () ->
      Tap.emit tap "a";
      Kernel.wait_for k (Time.ns 10);
      Tap.emit tap "b");
  Kernel.run k;
  match Tap.trace tap with
  | [ e1; e2 ] ->
      Alcotest.(check string) "first" "a" (Name.to_string e1.Trace.name);
      Alcotest.(check int) "t1" 0 e1.Trace.time;
      Alcotest.(check int) "t2" 10_000 e2.Trace.time
  | _ -> Alcotest.fail "expected two events"

let test_tap_subscribers_in_order () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let log = ref [] in
  Tap.subscribe_name tap (name "x") (fun _ -> log := "first" :: !log);
  Tap.subscribe_name tap (name "x") (fun _ -> log := "second" :: !log);
  Tap.emit tap "x";
  Alcotest.(check (list string)) "order" [ "first"; "second" ] (List.rev !log)

let test_tap_no_record_mode () =
  let k = Kernel.create () in
  let tap = Tap.create ~record:false k in
  Tap.emit tap "x";
  Alcotest.(check int) "not recorded" 0 (List.length (Tap.trace tap));
  Alcotest.(check int) "still counted" 1 (Tap.count tap)

let test_checker_passes_good_trace () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker = Hub.add (Hub.create tap) (pat "{a, b} << go") in
  List.iter (Tap.emit tap) [ "b"; "a"; "go" ];
  Alcotest.(check bool) "passed" true (Checker.passed checker);
  Alcotest.check verdict_testable "satisfied" Monitor.Satisfied
    (Checker.verdict checker)

let test_checker_reports_violation_once () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker = Hub.add (Hub.create tap) (pat "a << go") in
  let hits = ref 0 in
  Checker.on_violation checker (fun _ -> incr hits);
  List.iter (Tap.emit tap) [ "go"; "go"; "a" ];
  Alcotest.(check int) "one callback" 1 !hits;
  Alcotest.(check bool) "failed" false (Checker.passed checker)

let test_checker_deadline_timeout_fires () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  (* 1000 ps deadline. *)
  let checker = Hub.add (Hub.create tap) (pat "req => ack within 1000") in
  Kernel.spawn k (fun () ->
      Tap.emit tap "req";
      (* Never ack; just let time pass. *)
      Kernel.wait_for k (Time.ns 100));
  Kernel.run k;
  (match Checker.verdict checker with
  | Monitor.Violated { reason = Diag.Deadline_miss _; _ } -> ()
  | _ -> Alcotest.fail "expected Deadline_miss via kernel timeout");
  Alcotest.(check int) "events seen" 1 (Checker.events_seen checker)

let test_checker_deadline_rescheduled_per_round () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker = Hub.add (Hub.create tap) (pat "req => ack within 1000") in
  Kernel.spawn k (fun () ->
      Tap.emit tap "req";
      Kernel.wait_for k (Time.ps 500);
      Tap.emit tap "ack";
      Kernel.wait_for k (Time.ns 50);
      Tap.emit tap "req";
      Kernel.wait_for k (Time.ps 800);
      Tap.emit tap "ack");
  Kernel.run k;
  Alcotest.(check bool) "both rounds in time" true (Checker.passed checker)

let test_checker_finalize_checks_pending_deadline () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker =
    Hub.add (Hub.create tap) (pat "req => ack within 1000000000")
  in
  Tap.emit tap "req";
  (* Deadline far away: finalize at current time must NOT fail... *)
  Alcotest.(check bool) "still pending" true
    (match Checker.finalize checker with
    | Monitor.Running -> true
    | _ -> false)

let test_stimuli_replay_timing () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  Stimuli.replay tap
    [ Trace.event ~time:100 (name "a"); Trace.event ~time:250 (name "b") ];
  Kernel.run k;
  match Tap.trace tap with
  | [ e1; e2 ] ->
      Alcotest.(check int) "a at 100 ps" 100 e1.Trace.time;
      Alcotest.(check int) "b at 250 ps" 250 e2.Trace.time
  | _ -> Alcotest.fail "two events expected"

let test_stimuli_drive_valid_passes () =
  let p = pat "{a, b} <<! go" in
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker = Hub.add (Hub.create tap) p in
  Stimuli.drive_valid ~rounds:4 tap p;
  Kernel.run k;
  Alcotest.(check bool) "valid stimuli pass" true (Checker.passed checker);
  Alcotest.(check bool) "events flowed" true (Tap.count tap > 0)

let test_stimuli_drive_violating_fails () =
  let p = pat "{a, b} <<! go" in
  let k = Kernel.create () in
  let tap = Tap.create k in
  let checker = Hub.add (Hub.create tap) p in
  let found = Stimuli.drive_violating tap p in
  Kernel.run k;
  Alcotest.(check bool) "found" true found;
  Alcotest.(check bool) "caught" false (Checker.passed checker)

let test_coverage_names () =
  let p = pat "{a, b} << go" in
  let cov = Coverage.create p in
  Coverage.observe_event cov (Trace.event (name "a"));
  Coverage.observe_event cov (Trace.event (name "a"));
  Coverage.observe_event cov (Trace.event (name "zzz"));
  let counts = Coverage.name_counts cov in
  Alcotest.(check int) "alpha size" 3 (List.length counts);
  Alcotest.(check int) "a twice" 2
    (List.assoc (name "a") counts);
  Alcotest.(check int) "b zero" 0 (List.assoc (name "b") counts);
  Alcotest.(check bool) "fraction" true
    (abs_float (Coverage.names_covered cov -. (1. /. 3.)) < 1e-9)

let test_coverage_states () =
  let p = pat "{a, b} << go" in
  let cov = Coverage.create p in
  Alcotest.(check bool) "starts at 0" true (Coverage.states_covered cov = 0.);
  let m = Monitor.create p in
  ignore (Monitor.step_name m (name "a"));
  Coverage.observe_states cov (Monitor.fragment_states m);
  (* Counting + Waiting_started out of 4 reachable kinds. *)
  Alcotest.(check bool) "half covered" true
    (abs_float (Coverage.states_covered cov -. 0.5) < 1e-9)

let test_coverage_rounds_and_violations () =
  let cov = Coverage.create (pat "a << i") in
  Coverage.record_round cov;
  Coverage.record_round cov;
  Coverage.record_violation cov;
  Alcotest.(check int) "rounds" 2 (Coverage.rounds cov);
  Alcotest.(check int) "violations" 1 (Coverage.violations cov)

let test_report_aggregates () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let report = Report.create () in
  Report.add report (Hub.add ~name:"good" (Hub.create tap) (pat "a << go"));
  Report.add report (Hub.add ~name:"bad" (Hub.create tap) (pat "b << go"));
  List.iter (Tap.emit tap) [ "a"; "go" ];
  Report.finalize report;
  Alcotest.(check bool) "not all passed" false (Report.all_passed report);
  Alcotest.(check int) "one failure" 1 (List.length (Report.failures report));
  Alcotest.(check string) "failure name" "bad"
    (Checker.name (List.hd (Report.failures report)))

let () =
  Alcotest.run "verif"
    [
      ( "tap",
        [
          Alcotest.test_case "records with time" `Quick
            test_tap_records_with_time;
          Alcotest.test_case "subscriber order" `Quick
            test_tap_subscribers_in_order;
          Alcotest.test_case "no-record mode" `Quick test_tap_no_record_mode;
        ] );
      ( "checker",
        [
          Alcotest.test_case "passes" `Quick test_checker_passes_good_trace;
          Alcotest.test_case "violation callback" `Quick
            test_checker_reports_violation_once;
          Alcotest.test_case "deadline timeout" `Quick
            test_checker_deadline_timeout_fires;
          Alcotest.test_case "deadline rescheduling" `Quick
            test_checker_deadline_rescheduled_per_round;
          Alcotest.test_case "finalize pending" `Quick
            test_checker_finalize_checks_pending_deadline;
        ] );
      ( "stimuli",
        [
          Alcotest.test_case "replay timing" `Quick test_stimuli_replay_timing;
          Alcotest.test_case "drive valid" `Quick
            test_stimuli_drive_valid_passes;
          Alcotest.test_case "drive violating" `Quick
            test_stimuli_drive_violating_fails;
        ] );
      ( "coverage & report",
        [
          Alcotest.test_case "names" `Quick test_coverage_names;
          Alcotest.test_case "states" `Quick test_coverage_states;
          Alcotest.test_case "rounds" `Quick
            test_coverage_rounds_and_violations;
          Alcotest.test_case "report" `Quick test_report_aggregates;
        ] );
    ]
