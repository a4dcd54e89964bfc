(* Mutation analysis and reachable coverage: the quality gate turned on
   itself.  Pins the ipu.suite kill rate the CI mutation job gates on,
   the stillborn pruning, the structural-vs-compiled cross-validation, the
   kill-rate drop under a deliberately weakened trace set, the
   committed event-pattern catalog, the coverage scorer, and the
   Explain registry entries for every new finding code. *)

open Loseq_core
open Loseq_analysis

let load path =
  match Loseq_verif.Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Loseq_verif.Suite.pp_error e

let example dir name =
  let candidates =
    [
      Filename.concat ("examples/" ^ dir) name;
      Filename.concat ("../examples/" ^ dir) name;
      Filename.concat ("../../examples/" ^ dir) name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let labeled path =
  List.map
    (fun (e : Loseq_verif.Suite.entry) -> (e.label, e.pattern))
    (load path)

let csv name =
  match Trace_io.load_csv (example "traces" name) with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s: %s" name e

let ipu = lazy (labeled (example "specs" "ipu.suite"))
let catalog_path = lazy (example "specs" "catalog.suite")

(* One full three-tier run over ipu.suite, shared by several pins. *)
let ipu_summary = lazy (Mutate.run (Lazy.force ipu))

(* ---- the CI gate ------------------------------------------------------ *)

let test_ipu_kill_rate () =
  let s = Lazy.force ipu_summary in
  Alcotest.(check bool)
    "a useful number of mutants" true (s.generated >= 40);
  Alcotest.(check bool)
    (Printf.sprintf "kill rate %.2f >= 0.9" s.kill_rate)
    true (s.kill_rate >= 0.9);
  (* every tier actually contributes on the committed suite *)
  Alcotest.(check bool) "static tier kills" true (s.killed_static > 0);
  Alcotest.(check bool) "equivalence tier kills" true
    (s.killed_equivalence > 0);
  Alcotest.(check bool) "differential tier kills" true
    (s.killed_differential > 0)

let test_ipu_stillborn_pruned () =
  let s = Lazy.force ipu_summary in
  (* conn-flips on singleton fragments and terminator flips on names the
     monitor already owns are provably equivalent *)
  Alcotest.(check bool) "some mutants are stillborn" true (s.stillborn > 0);
  let stillborn =
    List.filter (fun (r : Mutate.result) -> r.outcome = Mutate.Stillborn)
      s.results
  in
  Alcotest.(check int) "summary counts the stillborn list"
    s.stillborn (List.length stillborn);
  (* pruned, not counted against the gate *)
  let killed =
    s.killed_static + s.killed_equivalence + s.killed_differential
  in
  let denom = s.generated - s.stillborn in
  Alcotest.(check bool) "denominator excludes stillborn" true
    (Float.abs (s.kill_rate -. (float killed /. float denom)) < 1e-9)

let test_ipu_cross_validation () =
  let s = Lazy.force ipu_summary in
  Alcotest.(check bool) "lockstep replays happened" true
    (s.cross_checked > 0);
  Alcotest.(check (list (pair string string)))
    "flat and compiled never diverge" [] s.divergences

let test_survivor_witnesses () =
  let s = Lazy.force ipu_summary in
  List.iter
    (fun (r : Mutate.result) ->
      match r.outcome with
      | Mutate.Killed k ->
          Alcotest.(check bool)
            (r.mutant.id ^ " kill has a witness")
            true (String.length k.witness > 0)
      | _ -> ())
    s.results;
  let fs = Mutate.findings ~suite:"ipu.suite" s in
  List.iter
    (fun (f : Finding.t) ->
      if String.equal f.code "mutant-survived" then begin
        match f.witness with
        | Some w ->
            Alcotest.(check bool) "witness is a replay command" true
              (String.length w > 0)
        | None -> Alcotest.fail "mutant-survived without replay witness"
      end)
    fs

(* A single mutant replay (the --mutant path) reproduces the full run's
   outcome for that mutant. *)
let test_single_mutant_replay () =
  let s = Lazy.force ipu_summary in
  let some_killed =
    List.find
      (fun (r : Mutate.result) ->
        match r.outcome with Mutate.Killed _ -> true | _ -> false)
      s.results
  in
  let replay =
    Mutate.run ~only:some_killed.mutant.id (Lazy.force ipu)
  in
  match replay.results with
  | [ r ] ->
      Alcotest.(check string) "same mutant" some_killed.mutant.id r.mutant.id;
      Alcotest.(check bool) "still killed" true
        (match r.outcome with Mutate.Killed _ -> true | _ -> false)
  | rs -> Alcotest.failf "--mutant replay ran %d mutants" (List.length rs)

(* ---- trace quality moves the kill rate -------------------------------- *)

let test_weak_traces_lower_kill_rate () =
  let suite = Lazy.force ipu in
  let full = Mutate.run ~tiers:[ Mutate.Differential ] suite in
  let weak = Mutate.run ~tiers:[ Mutate.Differential ] ~weak:true suite in
  Alcotest.(check bool)
    (Printf.sprintf "full %.2f > weak %.2f" full.kill_rate weak.kill_rate)
    true
    (full.kill_rate > weak.kill_rate);
  (* the weakened set misses whole operator families *)
  Alcotest.(check bool) "weak rate below the gate" true (weak.kill_rate < 0.9);
  Alcotest.(check bool) "full differential is strong" true
    (full.kill_rate >= 0.8)

(* ---- the event-pattern catalog ---------------------------------------- *)

let test_catalog_analyzes_clean () =
  let items =
    List.map
      (fun (e : Loseq_verif.Suite.entry) ->
        Analysis.item ~line:e.line e.label e.pattern)
      (load (Lazy.force catalog_path))
  in
  Alcotest.(check int) "eight shapes" 8 (List.length items);
  let errors =
    List.filter
      (fun (f : Finding.t) -> f.severity = Finding.Error)
      (Analysis.analyze items)
  in
  Alcotest.(check int) "no error finding" 0 (List.length errors)

let catalog_verdicts trace =
  Loseq_verif.Suite.check_trace (load (Lazy.force catalog_path)) trace

let test_catalog_ok_trace () =
  List.iter
    (fun (label, passed) ->
      Alcotest.(check bool) (label ^ " passes catalog_ok") true passed)
    (catalog_verdicts (csv "catalog_ok.csv"))

let test_catalog_bad_trace () =
  let expected =
    [
      ("precedence", false);
      ("response_bounded", false);
      ("chain_precedence", false);
      ("bounded_existence", false);
      ("choice", false);
      ("conjunction", false);
      ("chain_response", true);
      ("burst_response", true);
    ]
  in
  let verdicts = catalog_verdicts (csv "catalog_bad.csv") in
  List.iter
    (fun (label, want) ->
      match List.assoc_opt label verdicts with
      | Some got ->
          Alcotest.(check bool) (label ^ " on catalog_bad") want got
      | None -> Alcotest.failf "no verdict for %s" label)
    expected

(* The catalog traces feed the differential tier: with them, the
   catalog suite's own mutants die at a healthy rate. *)
let test_catalog_mutation () =
  let s =
    Mutate.run
      ~traces:[ csv "catalog_ok.csv"; csv "catalog_bad.csv" ]
      (labeled (Lazy.force catalog_path))
  in
  Alcotest.(check bool)
    (Printf.sprintf "catalog kill rate %.2f >= 0.9" s.kill_rate)
    true (s.kill_rate >= 0.9);
  Alcotest.(check (list (pair string string))) "no divergence" [] s.divergences

(* ---- table patches ----------------------------------------------------- *)

let test_patched_clone_and_validation () =
  let p = Parser.pattern_exn "take_lock < release_lock <<! bus_idle" in
  let orig = Compiled.compile p in
  let clone = Compiled.patched orig Compiled.no_patch in
  let tr =
    [
      { Trace.name = Name.v "take_lock"; time = 1 };
      { Trace.name = Name.v "release_lock"; time = 2 };
      { Trace.name = Name.v "bus_idle"; time = 3 };
    ]
  in
  List.iter (fun e -> ignore (Compiled.step orig e)) tr;
  List.iter (fun e -> ignore (Compiled.step clone e)) tr;
  Alcotest.(check bool) "clone replays like the original" true
    (Compiled.verdict orig = Compiled.verdict clone);
  match
    Compiled.patched orig { Compiled.no_patch with set_lo = [ (99, 1) ] }
  with
  | _ -> Alcotest.fail "bad recognizer index accepted"
  | exception Invalid_argument _ -> ()

(* ---- reachable coverage ------------------------------------------------ *)

let test_coverage_empty_and_full () =
  let label, p =
    List.find (fun (l, _) -> l = "lock_protocol") (Lazy.force ipu)
  in
  let empty = Cover.report ~label p [] in
  Alcotest.(check int) "only the initial state visited" 1
    empty.visited_states;
  Alcotest.(check bool) "reachable set is larger" true
    (empty.reachable_states > 1);
  Alcotest.(check bool) "uncovered witness produced" true
    (empty.uncovered_witness <> None);
  (match empty.uncovered_witness with
  | Some w ->
      (* the witness is replayable and reaches a new state *)
      let after = Cover.report ~label p [ w ] in
      Alcotest.(check bool) "witness extends coverage" true
        (after.visited_states > empty.visited_states)
  | None -> ());
  let fs = Cover.findings [ empty ] in
  Alcotest.(check bool) "coverage-gap emitted" true
    (List.exists
       (fun (f : Finding.t) ->
         String.equal f.code "coverage-gap" && f.witness <> None)
       fs);
  (* a boundary-probing workload covers strictly more, never more than
     the reachable set *)
  let items =
    Mutate.workload ~seed:0x5eed ~weak:false (label, p)
  in
  let covered =
    Cover.report ~label p (List.map (fun (it : Mutate.item) -> it.trace) items)
  in
  Alcotest.(check bool) "visited <= reachable" true
    (covered.visited_states <= covered.reachable_states
    && covered.visited_edges <= covered.reachable_edges);
  Alcotest.(check bool) "workload visits most of the space" true
    (covered.visited_states > empty.visited_states)

(* ---- Explain registry -------------------------------------------------- *)

let test_new_codes_explained () =
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " registered in Explain")
        true
        (Explain.find code <> None))
    [ "mutant-survived"; "mutation-kill-floor"; "coverage-gap";
      "backend-divergence" ];
  (* everything the two new finding producers can emit is explained:
     force a floor breach so mutation-kill-floor actually fires *)
  let s = Lazy.force ipu_summary in
  let fs =
    Mutate.findings ~floor:101. ~suite:"ipu.suite" s
    @ Cover.findings
        [ Cover.report ~label:"lock_protocol"
            (snd
               (List.find (fun (l, _) -> l = "lock_protocol")
                  (Lazy.force ipu)))
            [] ]
  in
  Alcotest.(check bool) "floor breach fires" true
    (List.exists
       (fun (f : Finding.t) -> String.equal f.code "mutation-kill-floor")
       fs);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (f.code ^ " emitted and explained")
        true
        (Explain.find f.code <> None))
    fs

let () =
  Alcotest.run "mutate"
    [
      ( "gate",
        [
          Alcotest.test_case "ipu kill rate" `Quick test_ipu_kill_rate;
          Alcotest.test_case "stillborn pruned" `Quick
            test_ipu_stillborn_pruned;
          Alcotest.test_case "flat cross-validation" `Quick
            test_ipu_cross_validation;
          Alcotest.test_case "witnesses" `Quick test_survivor_witnesses;
          Alcotest.test_case "single-mutant replay" `Quick
            test_single_mutant_replay;
        ] );
      ( "trace quality",
        [
          Alcotest.test_case "weak traces lower the rate" `Quick
            test_weak_traces_lower_kill_rate;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "analyzes clean" `Quick
            test_catalog_analyzes_clean;
          Alcotest.test_case "ok trace" `Quick test_catalog_ok_trace;
          Alcotest.test_case "bad trace pins" `Quick test_catalog_bad_trace;
          Alcotest.test_case "catalog mutation" `Quick test_catalog_mutation;
        ] );
      ( "patches",
        [
          Alcotest.test_case "clone and validation" `Quick
            test_patched_clone_and_validation;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "empty vs workload" `Quick
            test_coverage_empty_and_full;
        ] );
      ( "explain",
        [
          Alcotest.test_case "new codes" `Quick test_new_codes_explained;
        ] );
    ]
