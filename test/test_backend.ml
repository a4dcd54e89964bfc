(* The monitor-backend abstraction: three strategies (structural Drct,
   the flat table engine, PSL progression) behind one interface, their
   capabilities, step-by-step agreement of direct, the single-pattern
   Compiled interface and flat offline (verdict class, armed deadline
   and rendered diagnostic), flat state moving between engines,
   deadline-only violations hosted on a simulated tap, and the PSL
   backend against its progression oracle.  Every backend's verdicts
   against the declarative semantics, offline and hosted, are
   test_oracle's. *)

open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_testutil

let verdict_class = function
  | Backend.Running -> "running"
  | Backend.Satisfied -> "satisfied"
  | Backend.Violated _ -> "violated"

(* Feed a whole trace (verdicts are sticky), then finalize at its end. *)
let run_offline b trace =
  List.iter (fun e -> ignore (b.Backend.step e)) trace;
  b.Backend.finalize ~now:(Trace.end_time trace)

(* ---- unit: accessors and capabilities --------------------------------- *)

let test_alphabet_accessors () =
  let p = pat "{a, b} < c << i" in
  let expected = Pattern.alpha p in
  Alcotest.(check bool)
    "monitor alphabet" true
    (Name.Set.equal expected (Monitor.alphabet (Monitor.create p)));
  Alcotest.(check bool)
    "compiled alphabet" true
    (Name.Set.equal expected (Compiled.alphabet (Compiled.compile p)));
  List.iter
    (fun (label, b) ->
      Alcotest.(check bool) (label ^ " backend alphabet") true
        (Name.Set.equal expected b.Backend.alphabet))
    [
      ("direct", Backend.direct p);
      ("flat", Backend.flat p);
      ("psl", Loseq_psl.Progress.backend p);
    ]

let test_capabilities () =
  let p = pat "a <<! i" in
  let direct = Backend.direct p in
  let flat = Backend.flat p in
  Alcotest.(check bool) "direct has states" true (direct.Backend.states <> None);
  Alcotest.(check bool) "direct has acceptable" true
    (direct.Backend.acceptable <> None);
  Alcotest.(check bool) "flat has no states" true (flat.Backend.states = None);
  Alcotest.(check bool) "flat carries its engine" true
    (flat.Backend.engine <> None);
  (* state is the engine's: checkpoints reach it through the view *)
  let eng = Option.get flat.Backend.engine in
  ignore (flat.Backend.step { Trace.name = Name.v "a"; time = 1 });
  let persisted = Flat.persist_checker eng 0 in
  let copy = Flat.compile [ ("p", p) ] in
  Flat.copy_checker ~src:eng copy 0;
  Alcotest.(check bool) "flat state copies through its engine" true
    (Flat.persist_checker copy 0 = persisted);
  Alcotest.(check bool) "a stepped state, not the initial one" true
    (persisted <> Flat.persist_checker (Flat.compile [ ("p", p) ]) 0);
  Alcotest.(check string) "labels" "direct/flat"
    (direct.Backend.label ^ "/" ^ flat.Backend.label)

let test_next_deadline_mirrors () =
  let p = pat "a => b < c within 100" in
  let m = Monitor.create p in
  let c = Compiled.compile p in
  let step name time =
    ignore (Monitor.step m { Trace.name = Name.v name; time });
    ignore (Compiled.step c { Trace.name = Name.v name; time });
    Alcotest.(check (option int))
      (Printf.sprintf "deadlines agree after %s@%d" name time)
      (Monitor.next_deadline m) (Compiled.next_deadline c)
  in
  Alcotest.(check (option int)) "unarmed" None (Compiled.next_deadline c);
  step "a" 10;
  Alcotest.(check (option int)) "armed at 110" (Some 110)
    (Compiled.next_deadline c);
  step "b" 20;
  step "c" 30

let test_reset () =
  let b = Backend.flat (pat "a <<! i") in
  ignore (b.Backend.step { Trace.name = Name.v "i"; time = 1 });
  Alcotest.(check string) "violated" "violated"
    (verdict_class (b.Backend.verdict ()));
  b.Backend.reset ();
  Alcotest.(check string) "running again" "running"
    (verdict_class (b.Backend.verdict ()));
  ignore (b.Backend.step { Trace.name = Name.v "a"; time = 2 });
  ignore (b.Backend.step { Trace.name = Name.v "i"; time = 3 });
  Alcotest.(check string) "clean rerun" "running"
    (verdict_class (b.Backend.verdict ()))

(* ---- property: offline agreement -------------------------------------- *)

let compiled_class = function
  | Compiled.Running -> "running"
  | Compiled.Satisfied -> "satisfied"
  | Compiled.Violated _ -> "violated"

let prop_direct_compiled_agree (p, trace) =
  let d = Backend.direct p in
  let c = Compiled.compile p in
  let f = Backend.flat p in
  List.iter
    (fun e ->
      let vd = verdict_class (d.Backend.step e) in
      let vc = compiled_class (Compiled.step c e) in
      let vf = verdict_class (f.Backend.step e) in
      if vd <> vc || vc <> vf then
        QCheck2.Test.fail_reportf
          "step %a@%d: direct %s, compiled %s, flat %s" Name.pp e.Trace.name
          e.Trace.time vd vc vf;
      if d.Backend.next_deadline () <> Compiled.next_deadline c then
        QCheck2.Test.fail_reportf "deadline mismatch after %a@%d" Name.pp
          e.Trace.name e.Trace.time;
      if Compiled.next_deadline c <> f.Backend.next_deadline () then
        QCheck2.Test.fail_reportf "flat deadline mismatch after %a@%d" Name.pp
          e.Trace.name e.Trace.time)
    trace;
  let now = Trace.end_time trace in
  verdict_class (d.Backend.finalize ~now)
  = compiled_class (Compiled.finalize c ~now)
  && compiled_class (Compiled.verdict c)
     = verdict_class (f.Backend.finalize ~now)

(* The flat engine and the structural monitor are built independently;
   they must agree not just on the verdict class but on the whole
   diagnostic — time, event ordinal, active fragment and reason — all
   but the offending name, which only the structural monitor keeps. *)
let prop_flat_direct_diagnostics_agree (p, trace) =
  let d = Backend.direct p in
  let f = Backend.flat p in
  List.iter
    (fun e ->
      ignore (d.Backend.step e);
      ignore (f.Backend.step e))
    trace;
  let now = Trace.end_time trace in
  let render = function
    | Backend.Violated v ->
        Format.asprintf "%a" Backend.pp_verdict
          (Backend.Violated { v with Diag.name = None })
    | v -> Format.asprintf "%a" Backend.pp_verdict v
  in
  let vd = render (d.Backend.finalize ~now)
  and vf = render (f.Backend.finalize ~now) in
  if vd <> vf then QCheck2.Test.fail_reportf "direct %S, flat %S" vd vf
  else true

(* A flat checker's persisted state is exact: after every prefix it
   survives a trip through a second engine unchanged, and the second
   engine, stepping the rest of the trace, ends like the structural
   monitor that saw the whole trace.  Checkpoints rely on both: they
   are written from one engine and resumed into another. *)
let prop_state_moves_between_engines (p, trace) =
  let eng = Flat.compile [ ("p", p) ] in
  let d = Backend.direct p in
  let now = Trace.end_time trace in
  let expected = verdict_class (run_offline d trace) in
  let check k rest =
    let persisted = Flat.persist_checker eng 0 in
    let resumed = Backend.flat p in
    let resumed_eng = Option.get resumed.Backend.engine in
    Flat.copy_checker ~src:eng resumed_eng 0;
    if Flat.persist_checker resumed_eng 0 <> persisted then
      QCheck2.Test.fail_reportf "state changed in transit after %d events" k;
    List.iter (fun e -> ignore (resumed.Backend.step e)) rest;
    let got = verdict_class (resumed.Backend.finalize ~now) in
    if got <> expected then
      QCheck2.Test.fail_reportf
        "resumed after %d events: flat %s, structural monitor %s" k got
        expected
  in
  let rec go k = function
    | [] -> check k []
    | e :: rest as suffix ->
        check k suffix;
        Flat.step_event eng e;
        go (k + 1) rest
  in
  go 0 trace;
  true

(* ---- hosted on a simulated tap ------------------------------------------ *)

(* Replay the trace on a simulated tap with the checker hosted on a hub
   one checker at a time, and run the kernel well past every possible
   deadline: deadline-only violations (no trailing event) must be
   caught by the merged wheel. *)
let hosted backend p trace =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let checker = Hub.add ~backend:(Backend.per_pattern backend) hub p in
  Stimuli.replay tap trace;
  Kernel.run ~until:(Time.ps (Trace.end_time trace + 500)) kernel;
  Hub.finalize hub;
  Checker.verdict checker

(* The engine-direct hosting path: the hub steps the shared flat
   engine straight from the tap, no per-checker closure chain. *)
let hosted_flat_engine p trace =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
  let hub = Suite.attach_hub ~backend:Backend.flat_views tap suite in
  if Hub.engine hub = None then Alcotest.fail "expected engine-direct hosting";
  Stimuli.replay tap trace;
  Kernel.run ~until:(Time.ps (Trace.end_time trace + 500)) kernel;
  Hub.finalize hub;
  match Hub.checkers hub with
  | [ c ] -> Checker.verdict c
  | _ -> Alcotest.fail "expected exactly one hosted checker"

(* A deterministic deadline-only case: the premise fires, nothing else
   ever does, and only the hub's timer can notice. *)
let test_hosted_deadline_only () =
  let p = pat "a => b within 100" in
  List.iter
    (fun (label, backend) ->
      let v =
        hosted backend p [ { Trace.name = Name.v "a"; time = 10 } ]
      in
      Alcotest.(check string) label "violated" (verdict_class v))
    [
      ("direct", fun p -> Backend.direct p);
      ("flat", Backend.flat);
    ];
  let v =
    hosted_flat_engine p [ { Trace.name = Name.v "a"; time = 10 } ]
  in
  Alcotest.(check string) "flat engine" "violated" (verdict_class v)

(* ---- property: PSL backend vs progression oracle ----------------------- *)

(* The PSL backend (online lexer + progression) must agree with the
   reference pipeline (expand the whole word, progress, weak-accept) on
   untimed patterns; foreign names are filtered by the backend, so the
   oracle gets the filtered word. *)
let prop_psl_matches_oracle (p, trace) =
  let b = Loseq_psl.Progress.backend p in
  let hosted_passed = Backend.passed (run_offline b trace) in
  let word =
    List.filter
      (fun n -> Name.Set.mem n (Pattern.alpha p))
      (Trace.names trace)
  in
  let oracle = Loseq_psl.Progress.monitor_pattern p word in
  if hosted_passed <> oracle then
    QCheck2.Test.fail_reportf "psl backend %b, oracle %b" hosted_passed oracle
  else true

let gen_antecedent_and_trace =
  QCheck2.Gen.(
    let* p = gen_antecedent in
    let* trace = gen_trace_for p in
    return (p, trace))

let () =
  Alcotest.run "backend"
    [
      ( "interface",
        [
          Alcotest.test_case "alphabet accessors" `Quick
            test_alphabet_accessors;
          Alcotest.test_case "capabilities" `Quick test_capabilities;
          Alcotest.test_case "compiled next_deadline mirrors monitor" `Quick
            test_next_deadline_mirrors;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "equivalence",
        [
          qtest "direct, compiled and flat agree offline"
            gen_pattern_and_trace print_pattern_and_trace
            prop_direct_compiled_agree;
          qtest ~count:300 "flat and direct render equal diagnostics"
            gen_pattern_and_trace print_pattern_and_trace
            prop_flat_direct_diagnostics_agree;
          qtest ~count:300 "flat state moves between engines exactly"
            gen_pattern_and_trace print_pattern_and_trace
            prop_state_moves_between_engines;
          Alcotest.test_case "deadline-only violation, hosted" `Quick
            test_hosted_deadline_only;
          qtest ~count:300 "psl backend matches progression oracle"
            gen_antecedent_and_trace print_pattern_and_trace
            prop_psl_matches_oracle;
        ] );
    ]
