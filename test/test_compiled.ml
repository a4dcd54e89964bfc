(* The compiled monitor's own interface (verdicts, deadlines, interning,
   reset) and its verdict equivalence with the reference monitor and the
   declarative semantics on every pattern and trace.  test_oracle's
   "batch/compiled" mode checks it as a suite backend as well. *)

open Loseq_core
open Loseq_testutil

let verdict_bool = function
  | Compiled.Running | Compiled.Satisfied -> true
  | Compiled.Violated _ -> false

let same_kind c m =
  match (c, m) with
  | Compiled.Running, Monitor.Running -> true
  | Compiled.Satisfied, Monitor.Satisfied -> true
  | Compiled.Violated _, Monitor.Violated _ -> true
  | _ -> false

let test_basic_verdicts () =
  let p = pat "{a, b} << go" in
  Alcotest.(check bool) "pass" true
    (verdict_bool (Compiled.run p (tr [ "b"; "a"; "go" ])));
  Alcotest.(check bool) "fail" false
    (verdict_bool (Compiled.run p (tr [ "a"; "go" ])));
  match Compiled.run p (tr [ "b"; "a"; "go" ]) with
  | Compiled.Satisfied -> ()
  | _ -> Alcotest.fail "expected Satisfied"

let test_timed_deadline () =
  let p = pat "req => ack within 10" in
  let ok = [ Trace.event ~time:0 (name "req"); Trace.event ~time:9 (name "ack") ] in
  let late = [ Trace.event ~time:0 (name "req"); Trace.event ~time:11 (name "ack") ] in
  Alcotest.(check bool) "in time" true (verdict_bool (Compiled.run p ok));
  Alcotest.(check bool) "late" false (verdict_bool (Compiled.run p late));
  (* Timeout without any event. *)
  let t = Compiled.compile p in
  ignore (Compiled.step t (Trace.event ~time:0 (name "req")));
  match Compiled.finalize t ~now:100 with
  | Compiled.Violated { reason = Diag.Deadline_miss _; _ } -> ()
  | _ -> Alcotest.fail "expected Deadline_miss"

let test_id_interning () =
  let t = Compiled.compile (pat "a << i") in
  Alcotest.(check bool) "a interned" true
    (Compiled.id_of_name t (name "a") <> None);
  Alcotest.(check bool) "i interned" true
    (Compiled.id_of_name t (name "i") <> None);
  Alcotest.(check (option int)) "foreign" None
    (Compiled.id_of_name t (name "zzz"))

let test_step_id_bounds () =
  let t = Compiled.compile (pat "a << i") in
  match Compiled.step_id t ~id:99 ~time:0 with
  | (_ : Compiled.verdict) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_foreign_ignored () =
  let t = Compiled.compile (pat "a << i") in
  ignore (Compiled.step t (Trace.event (name "zzz")));
  match Compiled.verdict t with
  | Compiled.Running -> ()
  | _ -> Alcotest.fail "foreign must be ignored"

let test_reset_reusable () =
  let t = Compiled.compile (pat "a << i") in
  ignore (Compiled.step t (Trace.event (name "i")));
  (match Compiled.verdict t with
  | Compiled.Violated _ -> ()
  | _ -> Alcotest.fail "violated");
  Compiled.reset t;
  ignore (Compiled.step t (Trace.event ~time:0 (name "a")));
  ignore (Compiled.step t (Trace.event ~time:1 (name "i")));
  match Compiled.verdict t with
  | Compiled.Satisfied -> ()
  | _ -> Alcotest.fail "reusable after reset"

let test_rejects_ill_formed () =
  let bad = Pattern.antecedent [ Pattern.single (name "i") ] ~trigger:(name "i") in
  match Compiled.compile bad with
  | (_ : Compiled.t) -> Alcotest.fail "expected Ill_formed"
  | exception Wellformed.Ill_formed _ -> ()

let qcheck_compiled_equals_monitor =
  qtest ~count:3000 "compiled verdicts = reference monitor verdicts"
    gen_pattern_and_trace print_pattern_and_trace
    (fun (p, trace) ->
      if not (Trace.is_chronological trace) then true
      else begin
        let final_time = Trace.end_time trace + 1_000 in
        let compiled = Compiled.compile p in
        let monitor = Monitor.create p in
        let stepwise_equal =
          List.for_all
            (fun e ->
              let c = Compiled.step compiled e in
              let m = Monitor.step monitor e in
              same_kind c m)
            trace
        in
        stepwise_equal
        && same_kind
             (Compiled.finalize compiled ~now:final_time)
             (Monitor.finalize monitor ~now:final_time)
      end)

let qcheck_compiled_equals_semantics =
  qtest ~count:800 "compiled verdicts = declarative semantics"
    gen_pattern_and_trace print_pattern_and_trace
    (fun (p, trace) ->
      if not (Trace.is_chronological trace) then true
      else
        let final_time = Trace.end_time trace + 1_000 in
        Compiled.accepts ~final_time p trace
        = Semantics.holds ~final_time p trace)

let qcheck_reset_equivalent_to_fresh =
  qtest ~count:300 "reset monitor behaves like a fresh one"
    gen_pattern_and_trace print_pattern_and_trace
    (fun (p, trace) ->
      if not (Trace.is_chronological trace) then true
      else begin
        let t = Compiled.compile p in
        List.iter (fun e -> ignore (Compiled.step t e)) trace;
        Compiled.reset t;
        List.iter (fun e -> ignore (Compiled.step t e)) trace;
        let fresh = Compiled.compile p in
        List.iter (fun e -> ignore (Compiled.step fresh e)) trace;
        verdict_bool (Compiled.verdict t) = verdict_bool (Compiled.verdict fresh)
      end)

let () =
  Alcotest.run "compiled"
    [
      ( "unit",
        [
          Alcotest.test_case "verdicts" `Quick test_basic_verdicts;
          Alcotest.test_case "timed" `Quick test_timed_deadline;
          Alcotest.test_case "interning" `Quick test_id_interning;
          Alcotest.test_case "id bounds" `Quick test_step_id_bounds;
          Alcotest.test_case "foreign ignored" `Quick test_foreign_ignored;
          Alcotest.test_case "reset" `Quick test_reset_reusable;
          Alcotest.test_case "ill-formed" `Quick test_rejects_ill_formed;
        ] );
      ( "equivalence",
        [
          qcheck_compiled_equals_monitor;
          qcheck_compiled_equals_semantics;
          qcheck_reset_equivalent_to_fresh;
        ] );
    ]
