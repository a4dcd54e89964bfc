(* The alphabet-routed event hub: per-name tap subscriptions, delivery
   order, the merged deadline wheel, foreign names and the suite/hub
   integration. *)

open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_testutil

(* ---- tap routing ------------------------------------------------------- *)

let test_subscribe_name_routing () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let a_hits = ref 0 and b_hits = ref 0 in
  Tap.subscribe_name tap (name "a") (fun _ -> incr a_hits);
  Tap.subscribe_name tap (name "b") (fun _ -> incr b_hits);
  Tap.emit tap "a";
  Tap.emit tap "a";
  Tap.emit tap "b";
  Tap.emit tap "zzz";
  Alcotest.(check int) "a routed" 2 !a_hits;
  Alcotest.(check int) "b routed" 1 !b_hits;
  Alcotest.(check int) "recorded trace has all" 4
    (List.length (Tap.trace tap))

(* Dense ids: interned in subscription order, [emit_id] is [emit_name]
   without the lookup, and a name nobody subscribed to is counted and
   recorded without being interned. *)
let test_dense_ids () =
  let tap = Tap.create (Kernel.create ()) in
  let a_hits = ref 0 in
  Tap.subscribe_name tap (name "a") (fun _ -> incr a_hits);
  Tap.subscribe_name tap (name "b") ignore;
  Alcotest.(check (list int)) "ids" [ 0; 1; -1 ]
    (List.map (fun n -> Tap.lookup tap (name n)) [ "a"; "b"; "zzz" ]);
  Tap.emit_id tap (Tap.lookup tap (name "a"));
  Tap.emit tap "zzz";
  (Tap.port tap (name "a")) ();
  Alcotest.(check int) "a routed by id, name and port" 2 !a_hits;
  Alcotest.(check (list string)) "recorded trace has all" [ "a"; "zzz"; "a" ]
    (List.map (fun e -> Name.to_string e.Trace.name) (Tap.trace tap));
  Alcotest.(check int) "counted" 3 (Tap.count tap);
  Alcotest.(check int) "foreign name not interned" (-1)
    (Tap.lookup tap (name "zzz"));
  Alcotest.(check string) "name by id" "b" (Name.to_string (Tap.name tap 1))

(* Subscribers of a name run in subscription order, each given the
   emission's time; another name's subscribers do not run. *)
let test_delivery_order () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let log = ref [] in
  let hit tag time = log := (tag, time) :: !log in
  Tap.subscribe_name tap (name "a") (hit "first");
  Tap.subscribe_name tap (name "b") (hit "other");
  Tap.subscribe_name tap (name "a") (hit "second");
  Tap.subscribe_name tap (name "a") (hit "third");
  Kernel.spawn kernel (fun () ->
      Kernel.wait_for kernel (Time.ps 7);
      Tap.emit tap "a");
  Kernel.run kernel;
  Alcotest.(check (list (pair string int)))
    "subscription order, at the emission time"
    [ ("first", 7); ("second", 7); ("third", 7) ]
    (List.rev !log)

(* ---- hub routing ------------------------------------------------------- *)

let test_hub_routes_by_alphabet () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let c1 = Hub.add hub (pat "{a1, b1} <<! go1") in
  let c2 = Hub.add hub (pat "{a2, b2} <<! go2") in
  List.iter (Tap.emit tap) [ "a1"; "b1"; "go1"; "noise" ];
  Alcotest.(check int) "c1 saw its three events" 3 (Checker.events_seen c1);
  Alcotest.(check int) "c2 saw nothing" 0 (Checker.events_seen c2);
  Alcotest.(check int) "hub size" 2 (Hub.size hub);
  Alcotest.(check bool) "all pass" true (Hub.all_passed hub)

let test_hub_detects_violation () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let c = Hub.add hub (pat "{a, b} << i") in
  List.iter (Tap.emit tap) [ "a"; "i" ];
  Alcotest.(check bool) "violated" false (Checker.passed c);
  Alcotest.(check bool) "hub reports it" false (Hub.all_passed hub)

(* ---- merged deadline wheel --------------------------------------------- *)

(* Two timed checkers, different deadlines, no trailing events: each
   miss must fire at its own deadline off the single parked timeout. *)
let test_merged_wheel_deadlines () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let c1 = Hub.add hub (pat "a1 => b1 within 100") in
  let c2 = Hub.add hub (pat "a2 => b2 within 300") in
  let times = ref [] in
  Checker.on_violation c1 (fun v -> times := ("c1", v.Diag.time) :: !times);
  Checker.on_violation c2 (fun v -> times := ("c2", v.Diag.time) :: !times);
  Stimuli.replay tap
    [
      { Trace.name = name "a1"; time = 10 };
      { Trace.name = name "a2"; time = 20 };
    ];
  Kernel.run ~until:(Time.ps 1000) kernel;
  Alcotest.(check bool) "c1 violated" false (Checker.passed c1);
  Alcotest.(check bool) "c2 violated" false (Checker.passed c2);
  match List.rev !times with
  | [ ("c1", t1); ("c2", t2) ] ->
      Alcotest.(check bool) "c1 at its deadline" true (t1 >= 110 && t1 <= 112);
      Alcotest.(check bool) "c2 at its deadline" true (t2 >= 320 && t2 <= 322)
  | other ->
      Alcotest.failf "expected c1 then c2, got %d violation(s)"
        (List.length other)

(* A satisfied round must disarm, and a later round must re-arm. *)
let test_wheel_rearm () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let c = Hub.add hub (pat "a => b within 100") in
  Stimuli.replay tap
    [
      { Trace.name = name "a"; time = 10 };
      { Trace.name = name "b"; time = 50 };
      (* second round: premise only, deadline 600 missed *)
      { Trace.name = name "a"; time = 500 };
    ];
  Kernel.run ~until:(Time.ps 2000) kernel;
  Alcotest.(check bool) "second round missed" false (Checker.passed c)

(* ---- foreign names ----------------------------------------------------- *)

(* A hub routes by alphabet, so a name foreign to every checker steps
   none of them. *)
let test_lenient_ignores_foreign () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Hub.create tap in
  let lenient = Hub.add hub (pat "a <<! i") in
  Tap.emit tap "zzz";
  Alcotest.(check bool) "lenient ignores foreign" true
    (Checker.passed lenient);
  Alcotest.(check int) "lenient never stepped" 0 (Checker.events_seen lenient)

(* ---- suite integration ------------------------------------------------- *)

let test_suite_attach_hub () =
  let suite =
    match
      Suite.parse "one: {a, b} << i\ntwo: c <<! j\n"
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "suite: %a" Suite.pp_error e
  in
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Suite.attach_hub tap suite in
  List.iter (Tap.emit tap) [ "a"; "b"; "i"; "c"; "j" ];
  Hub.finalize hub;
  Alcotest.(check int) "two checkers" 2 (Hub.size hub);
  Alcotest.(check bool) "all pass" true (Hub.all_passed hub);
  Alcotest.(check bool) "report agrees" true
    (Report.all_passed (Hub.report hub))

(* ---- engine-direct hosting --------------------------------------------- *)

let parse_suite src =
  match Suite.parse src with
  | Ok s -> s
  | Error e -> Alcotest.failf "suite: %a" Suite.pp_error e

(* The independent reference: the structural monitor, one per checker. *)
let direct = Backend.per_pattern (fun p -> Backend.direct p)

(* Views of one shared flat engine, the default, are stepped
   engine-direct; per-pattern backends are hosted per checker. *)
let test_flat_views_engine_direct () =
  let suite = parse_suite "one: {a, b} << i\ntwo: c <<! j\n" in
  let hub ?backend () =
    Suite.attach_hub ?backend (Tap.create (Kernel.create ())) suite
  in
  Alcotest.(check bool) "flat views: one hosted engine" true
    (Hub.engine (hub ~backend:Backend.flat_views ()) <> None);
  Alcotest.(check bool) "default: one hosted engine" true
    (Hub.engine (hub ()) <> None);
  Alcotest.(check bool) "per-pattern direct: no engine" true
    (Hub.engine (hub ~backend:direct ()) = None)

(* [Hub.add] with the default backend compiles an engine of its own and
   hosts it engine-direct; a per-pattern backend is hosted per checker. *)
let test_add_engine_direct () =
  let hub = Hub.create (Tap.create (Kernel.create ())) in
  let c = Hub.add ~name:"p" hub (pat "{a, b} << i") in
  (match Hub.engine hub with
  | Some eng ->
      Alcotest.(check (list string)) "one checker, labelled" [ "p" ]
        (List.init (Flat.size eng) (Flat.label eng))
  | None -> Alcotest.fail "Hub.add hosted per checker");
  Alcotest.(check string) "checker name" "p" (Checker.name c);
  let per_checker = Hub.create (Tap.create (Kernel.create ())) in
  ignore (Hub.add ~backend:direct per_checker (pat "{a, b} << i"));
  Alcotest.(check bool) "per-pattern direct: no engine" true
    (Hub.engine per_checker = None)

(* An engine-direct checker's coverage counts every delivery per name
   and every completed round, as a checker stepped one delivery at a
   time counts them. *)
let test_engine_direct_coverage () =
  let coverage backend =
    let tap = Tap.create (Kernel.create ()) in
    let c = Hub.add ?backend (Hub.create tap) (pat "{a, b} << i") in
    List.iter (Tap.emit tap) [ "b"; "x"; "a"; "i"; "i" ];
    let cov = Checker.coverage c in
    ( List.map (fun (n, k) -> (Name.to_string n, k)) (Coverage.name_counts cov),
      Coverage.rounds cov,
      Checker.events_seen c )
  in
  let engine = coverage None and reference = coverage (Some direct) in
  Alcotest.(check (list (pair string int))) "name counts"
    [ ("a", 1); ("b", 1); ("i", 2) ]
    (let names, _, _ = engine in names);
  Alcotest.(check bool) "same as per-checker direct" true (engine = reference);
  let _, rounds, seen = engine in
  Alcotest.(check int) "one round" 1 rounds;
  Alcotest.(check int) "events seen" 4 seen

(* Feed timestamped [events] through a fresh hub over [suite].  Returns
   the hub and its violations as (label, time, reason), in report
   order. *)
let run_hosted ?metrics ?backend suite events =
  let kernel = Kernel.create () in
  let tap = Tap.create ~record:false kernel in
  let hub = Suite.attach_hub ?metrics ?backend tap suite in
  let log = ref [] in
  Hub.on_violation hub (fun c v ->
      log := (Checker.name c, v.Diag.time, v.Diag.reason) :: !log);
  let advance t =
    if Time.( < ) (Kernel.now kernel) (Time.ps t) then
      Kernel.run ~until:(Time.ps t) kernel
  in
  List.iter
    (fun (t, nm) ->
      advance t;
      Tap.emit_name tap (name nm))
    events;
  advance (List.fold_left (fun m (t, _) -> max m t) 0 events + 100);
  Hub.finalize hub;
  (hub, List.rev !log)

(* Shared names, a deadline, a violation and a foreign name: the
   delivery, step and dispatch counters read the same whichever path
   hosts the suite, per checker on the structural monitor or
   engine-direct (the steps family differs only in its backend label),
   and so does every checker's [events_seen]. *)
let test_metrics_match_across_hosting () =
  let suite =
    parse_suite
      "one: {a, b} <<! go\ntwo: {b, c} <<! go\nthree: a => c within 10\n\
       four: c < a <<! go\n"
  in
  let events =
    [ (0, "a"); (1, "b"); (2, "c"); (3, "go"); (5, "a"); (6, "zzz");
      (20, "c"); (21, "go"); (22, "b") ]
  in
  let counters ?backend () =
    let metrics = Loseq_obs.Metrics.create () in
    let hub, _ = run_hosted ~metrics ?backend suite events in
    let families =
      [ "loseq_events_dispatched_total"; "loseq_hub_deliveries_total";
        "loseq_backend_steps_total" ]
    in
    let lines =
      Loseq_obs.Expo.prometheus metrics
      |> String.split_on_char '\n'
      |> List.filter (fun l ->
             List.exists (fun prefix -> String.starts_with ~prefix l) families)
      |> List.map (fun l ->
             (* drop the backend label: direct vs flat *)
             if String.starts_with ~prefix:"loseq_backend_steps_total" l then
               "loseq_backend_steps_total "
               ^ List.nth (String.split_on_char ' ' l) 1
             else l)
      |> List.sort compare
    in
    (lines, List.map Checker.events_seen (Hub.checkers hub))
  in
  let direct_lines, direct_seen = counters ~backend:direct () in
  let flat_lines, flat_seen = counters ~backend:Backend.flat_views () in
  Alcotest.(check int) "families present" 6 (List.length direct_lines);
  Alcotest.(check (list string)) "exposition" direct_lines flat_lines;
  Alcotest.(check (list int)) "events_seen" direct_seen flat_seen

(* Two deadlines falling due at the same instant fire in suite order
   under both hostings; the wheel's heap history (which differs between
   them) must not decide it. *)
let test_same_instant_misses_in_suite_order () =
  let suite =
    parse_suite
      "t0: b => d within 3\nt1: e => b within 3\nt2: b => a within 3\n\
       t3: b => d within 3\n"
  in
  let events = [ (0, "e"); (0, "a"); (0, "b") ] in
  let labels log = List.map (fun (l, t, _) -> (l, t)) log in
  let expected = [ ("t2", 0); ("t0", 3); ("t3", 3) ] in
  Alcotest.(check (list (pair string int)))
    "per-checker direct" expected
    (labels (snd (run_hosted ~backend:direct suite events)));
  Alcotest.(check (list (pair string int)))
    "engine-direct" expected
    (labels (snd (run_hosted ~backend:Backend.flat_views suite events)))

let () =
  Alcotest.run "hub"
    [
      ( "tap",
        [
          Alcotest.test_case "per-name routing" `Quick
            test_subscribe_name_routing;
          Alcotest.test_case "delivery order" `Quick test_delivery_order;
          Alcotest.test_case "dense ids" `Quick test_dense_ids;
        ] );
      ( "routing",
        [
          Alcotest.test_case "alphabet routing" `Quick
            test_hub_routes_by_alphabet;
          Alcotest.test_case "violation through hub" `Quick
            test_hub_detects_violation;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "merged deadlines" `Quick
            test_merged_wheel_deadlines;
          Alcotest.test_case "re-arm across rounds" `Quick test_wheel_rearm;
        ] );
      ( "modes",
        [
          Alcotest.test_case "lenient ignores foreign" `Quick
            test_lenient_ignores_foreign;
        ] );
      ( "suite",
        [ Alcotest.test_case "attach_hub" `Quick test_suite_attach_hub ] );
      ( "engine",
        [
          Alcotest.test_case "flat views host engine-direct" `Quick
            test_flat_views_engine_direct;
          Alcotest.test_case "Hub.add hosts one engine" `Quick
            test_add_engine_direct;
          Alcotest.test_case "engine-direct coverage" `Quick
            test_engine_direct_coverage;
          Alcotest.test_case "metrics match across hosting" `Quick
            test_metrics_match_across_hosting;
          Alcotest.test_case "same-instant misses in suite order" `Quick
            test_same_instant_misses_in_suite_order;
        ] );
    ]
