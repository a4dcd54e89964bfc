(* The semantic analyzer: deterministic checks on the committed example
   suites, SARIF well-formedness, and qcheck cross-validation of the
   abstract machine's verdicts against the concrete compiled monitors. *)

open Loseq_core
open Loseq_analysis
open Loseq_testutil

let load path =
  match Loseq_verif.Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Loseq_verif.Suite.pp_error e

let analyze_file path =
  Analysis.analyze
    (List.map
       (fun (e : Loseq_verif.Suite.entry) ->
         Analysis.item ~file:path ~line:e.line e.label e.pattern)
       (load path))

let codes fs = List.map (fun (f : Finding.t) -> f.Finding.code) fs

(* Locate a committed spec whether the binary runs from the workspace
   root (dune exec) or the test directory (dune runtest). *)
let spec name =
  let candidates =
    [
      Filename.concat "examples/specs" name;
      Filename.concat "../examples/specs" name;
      Filename.concat "../../examples/specs" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let ipu = spec "ipu.suite"
let defective = spec "defective.suite"

(* Step a compiled monitor through the events of [trace] that belong to
   its alphabet — the suite semantics: a monitor only sees its own
   names. *)
let replay c trace =
  let alpha = Compiled.alphabet c in
  List.iter
    (fun (ev : Trace.event) ->
      if Name.Set.mem ev.name alpha then ignore (Compiled.step c ev))
    trace

let violated c =
  match Compiled.verdict c with Compiled.Violated _ -> true | _ -> false

(* ---- the committed example suites ------------------------------------ *)

let test_defective_suite () =
  let fs = analyze_file defective in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " found") true (List.mem code (codes fs)))
    [
      "vacuous-unviolatable";
      "deadline-infeasible";
      "subsumed-checker";
      "conflicting-pair";
    ];
  Alcotest.(check int) "exit code 2" 2 (Finding.exit_code fs);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool) "origin file attached" true (f.file <> None))
    fs;
  let conflict =
    List.find (fun (f : Finding.t) -> f.code = "conflicting-pair") fs
  in
  Alcotest.(check (option string))
    "conflict names both entries"
    (Some "ping_pong, pong_ping")
    conflict.subject

let test_ipu_suite () =
  let fs = analyze_file ipu in
  Alcotest.(check bool)
    "no error finding" true
    (List.for_all (fun (f : Finding.t) -> f.severity <> Finding.Error) fs);
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " absent") false
        (List.mem code (codes fs)))
    [
      "vacuous-unviolatable";
      "deadline-infeasible";
      "subsumed-checker";
      "equivalent-checkers";
      "conflicting-pair";
    ];
  Alcotest.(check bool) "exit <= 1" true (Finding.exit_code fs <= 1)

(* ---- SARIF ----------------------------------------------------------- *)

let test_sarif_well_formed () =
  let fs = analyze_file defective in
  let text =
    Format.asprintf "%a"
      (fun ppf -> Finding.render ~rules:Analysis.rules Finding.Sarif ppf)
      fs
  in
  let json =
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "SARIF does not parse: %s" e
  in
  let str path j =
    match Option.bind (Json.member path j) Json.to_string_opt with
    | Some s -> s
    | None -> Alcotest.failf "missing %S" path
  in
  Alcotest.(check bool)
    "$schema names 2.1.0" true
    (let s = str "$schema" json in
     let sub = "sarif-2.1.0" in
     let n = String.length s and m = String.length sub in
     let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
     at 0);
  Alcotest.(check string) "version" "2.1.0" (str "version" json);
  let runs =
    match Option.bind (Json.member "runs" json) Json.to_list_opt with
    | Some [ run ] -> run
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver =
    match
      Option.bind (Json.member "tool" runs) (Json.member "driver")
    with
    | Some d -> d
    | None -> Alcotest.fail "missing tool.driver"
  in
  Alcotest.(check string) "tool name" "loseq" (str "name" driver);
  let rule_ids =
    match Option.bind (Json.member "rules" driver) Json.to_list_opt with
    | Some rules -> List.map (str "id") rules
    | None -> Alcotest.fail "missing driver.rules"
  in
  let results =
    match Option.bind (Json.member "results" runs) Json.to_list_opt with
    | Some rs -> rs
    | None -> Alcotest.fail "missing results"
  in
  Alcotest.(check int) "one result per finding" (List.length fs)
    (List.length results);
  List.iter
    (fun r ->
      let id = str "ruleId" r in
      Alcotest.(check bool)
        (id ^ " resolves to a rule")
        true (List.mem id rule_ids))
    results

(* ---- exit codes and suppression -------------------------------------- *)

let test_exit_and_suppress () =
  Alcotest.(check int) "empty is clean" 0 (Finding.exit_code []);
  let fs = analyze_file defective in
  let no_errors =
    Finding.suppress [ "deadline-infeasible"; "conflicting-pair" ] fs
  in
  Alcotest.(check int) "errors suppressed" 1 (Finding.exit_code no_errors);
  Alcotest.(check int) "all suppressed" 0
    (Finding.exit_code (Finding.suppress (codes fs) fs))

let test_explain_covers_all_codes () =
  let rule_codes = List.map fst Analysis.rules in
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (f.code ^ " has a rule entry")
        true (List.mem f.code rule_codes);
      Alcotest.(check bool)
        (f.code ^ " has an explanation")
        true
        (Explain.find f.code <> None))
    (analyze_file defective @ analyze_file ipu)

(* ---- deadline feasibility -------------------------------------------- *)

let deadline_codes d =
  codes (Checks.findings (pat (Printf.sprintf "start => ack[3,8] < done within %d" d)))

let test_deadline_exactness () =
  let r = Checks.report (pat "start => ack[3,8] < done within 2") in
  Alcotest.(check (option int))
    "minimal conclusion events" (Some 4) r.Checks.min_conclusion_events;
  Alcotest.(check bool)
    "infeasible at 2" true
    (List.mem "deadline-infeasible" (deadline_codes 2));
  Alcotest.(check bool)
    "tight at 4" true
    (List.mem "deadline-tight" (deadline_codes 4));
  let loose = deadline_codes 5 in
  Alcotest.(check bool)
    "clean at 5" false
    (List.mem "deadline-infeasible" loose
    || List.mem "deadline-tight" loose)

(* ---- cross-pattern procedures ---------------------------------------- *)

let test_subsumption_direction () =
  let tight = pat "req[1,3] <<! grant" and loose = pat "req[1,8] <<! grant" in
  Alcotest.(check (option bool))
    "loose redundant beside tight" (Some true)
    (Suite_checks.subsumes tight loose);
  Alcotest.(check (option bool))
    "tight not redundant beside loose" (Some false)
    (Suite_checks.subsumes loose tight)

let test_conflict_and_witness () =
  let ab = pat "ping < pong <<! go" and ba = pat "pong < ping <<! go" in
  (match Suite_checks.compatible_witness ab ba with
  | Some (None, true) -> ()
  | _ -> Alcotest.fail "expected a conflict (both matchable, no witness)");
  (* a compatible pair yields a replayable witness *)
  let other = pat "ping < pong <<! stop" in
  match Suite_checks.compatible_witness ab other with
  | Some (Some w, true) ->
      let ca = Compiled.compile (pat "ping < pong <<! go") in
      let cb = Compiled.compile (pat "ping < pong <<! stop") in
      replay ca w;
      replay cb w;
      Alcotest.(check bool) "a matched" true (Compiled.rounds_completed ca >= 1);
      Alcotest.(check bool) "b matched" true (Compiled.rounds_completed cb >= 1);
      Alcotest.(check bool) "neither violated" false (violated ca || violated cb)
  | _ -> Alcotest.fail "expected a compatibility witness"

(* ---- qcheck: abstraction vs the concrete monitor ---------------------- *)

let pp_pattern p = Format.asprintf "%a" Pattern.pp p

let qcheck_violation_witness_replays =
  qtest ~count:150 "violation witnesses replay to concrete violations"
    gen_pattern pp_pattern (fun p ->
      let r = Checks.report p in
      match r.Checks.violation_witness with
      | None -> true
      | Some w -> (
          let c = Compiled.compile p in
          replay c w;
          if r.Checks.time_violation then
            match p with
            | Pattern.Timed g -> (
                match Compiled.finalize c ~now:(g.deadline + 1) with
                | Compiled.Violated _ -> true
                | _ -> false)
            | Pattern.Antecedent _ -> false
          else violated c))

let qcheck_match_witness_replays =
  qtest ~count:150 "match witnesses complete a concrete round" gen_pattern
    pp_pattern (fun p ->
      let r = Checks.report p in
      match r.Checks.match_witness with
      | None -> true
      | Some w ->
          let c = Compiled.compile p in
          replay c w;
          Compiled.rounds_completed c >= 1 && not (violated c))

let qcheck_safe_witness_is_safe =
  qtest ~count:100 "safe witnesses survive any continuation"
    QCheck2.Gen.(pair gen_antecedent (int_bound 1_000_000))
    (fun (p, seed) -> Printf.sprintf "%s (seed %d)" (pp_pattern p) seed)
    (fun (p, seed) ->
      let r = Checks.report p in
      match r.Checks.safe_witness with
      | None -> true
      | Some w ->
          let c = Compiled.compile p in
          replay c w;
          (not (violated c))
          &&
          let rng = Random.State.make [| seed |] in
          let alpha =
            Array.of_list (Name.Set.elements (Pattern.alpha p))
          in
          let time = ref (Trace.end_time w) in
          let ok = ref true in
          for _ = 1 to 30 do
            incr time;
            let name = alpha.(Random.State.int rng (Array.length alpha)) in
            ignore (Compiled.step c { Trace.name; time = !time });
            if violated c then ok := false
          done;
          !ok)

let qcheck_min_events_cross_validates_lint =
  qtest ~count:150 "automaton deadline bound equals Lint.min_events"
    gen_timed pp_pattern (fun p ->
      let r = Checks.report p in
      match (p, r.Checks.min_conclusion_events) with
      | Pattern.Timed g, Some m ->
          (not r.Checks.complete) || m = Lint.min_events g.conclusion
      | _, None -> not r.Checks.complete
      | Pattern.Antecedent _, _ -> false)

let qcheck_subsumption_cross_validation =
  qtest ~count:100 "violations of a subsumed checker violate the subsumer"
    QCheck2.Gen.(pair (pair gen_antecedent gen_antecedent)
                   (int_bound 1_000_000))
    (fun ((a, b), seed) ->
      Printf.sprintf "a: %s\nb: %s\nseed %d" (pp_pattern a) (pp_pattern b)
        seed)
    (fun ((a, b), seed) ->
      match Suite_checks.subsumes ~budget:20_000 a b with
      | Some true -> (
          (* b is redundant: anything that violates b violates a *)
          let rng = Random.State.make [| seed |] in
          match Generate.violating rng b with
          | None -> true
          | Some trace ->
              let ca = Compiled.compile a and cb = Compiled.compile b in
              replay ca trace;
              replay cb trace;
              (not (violated cb)) || violated ca)
      | _ -> true)

let qcheck_conflict_cross_validation =
  qtest ~count:100 "conflicting pairs never both match on random runs"
    QCheck2.Gen.(pair (pair gen_antecedent gen_antecedent)
                   (int_bound 1_000_000))
    (fun ((a, b), seed) ->
      Printf.sprintf "a: %s\nb: %s\nseed %d" (pp_pattern a) (pp_pattern b)
        seed)
    (fun ((a, b), seed) ->
      match Suite_checks.compatible_witness ~budget:20_000 a b with
      | Some (None, true) ->
          (* conflict: no run may ever have both matched and neither
             violated — check the invariant along random words over the
             union alphabet *)
          let rng = Random.State.make [| seed |] in
          let union =
            Array.of_list
              (Name.Set.elements
                 (Name.Set.union (Pattern.alpha a) (Pattern.alpha b)))
          in
          let ca = Compiled.compile a and cb = Compiled.compile b in
          let ok = ref true in
          for time = 1 to 40 do
            let name = union.(Random.State.int rng (Array.length union)) in
            replay ca [ { Trace.name; time } ];
            replay cb [ { Trace.name; time } ];
            if
              Compiled.rounds_completed ca >= 1
              && Compiled.rounds_completed cb >= 1
              && (not (violated ca))
              && not (violated cb)
            then ok := false
          done;
          !ok
      | _ -> true)

let qcheck_analyze_never_crashes =
  qtest ~count:150 "analyze_pattern total on well-formed patterns"
    gen_pattern pp_pattern (fun p ->
      ignore (Analysis.analyze_pattern p);
      true)

(* ---- qcheck: the explorer against a reference BFS ---------------------- *)

(* The reference explorer: the plain BFS with a polymorphic-key index
   ([Hashtbl] on a deep hash paired with the state), one lookup to test
   membership and another to add.  [Reach.explore] must reproduce its
   discovery order, predecessor tree, edge lists and completeness
   exactly: race witnesses and every reported index depend on them. *)
type 'a reference = {
  r_states : 'a array;
  r_pred : (int * int) array;
  r_succ : (int * int) list array;
  r_complete : bool;
}

let reference_explore ~budget (sys : 'a Reach.system) =
  let index = Hashtbl.create 1024 in
  let key st = (Hashtbl.hash_param 256 256 st, st) in
  let states = ref [] and pred = ref [] and n = ref 0 in
  let succ = Hashtbl.create 1024 in
  let complete = ref true in
  let add st pr =
    match Hashtbl.find_opt index (key st) with
    | Some i -> Some i
    | None ->
        if !n >= budget then begin
          complete := false;
          None
        end
        else begin
          let i = !n in
          incr n;
          Hashtbl.replace index (key st) i;
          states := st :: !states;
          pred := pr :: !pred;
          Some i
        end
  in
  ignore (add sys.init (-1, -1));
  let q = Queue.create () in
  Queue.add (0, sys.init) q;
  while not (Queue.is_empty q) do
    let i, st = Queue.pop q in
    if not (sys.final st) then
      for id = 0 to sys.n_ids - 1 do
        List.iter
          (fun st' ->
            let existed = Hashtbl.mem index (key st') in
            match add st' (i, id) with
            | None -> ()
            | Some j ->
                Hashtbl.replace succ i
                  ((id, j) :: Option.value ~default:[] (Hashtbl.find_opt succ i));
                if not existed then Queue.add (j, st') q)
          (sys.step st id)
      done
  done;
  {
    r_states = Array.of_list (List.rev !states);
    r_pred = Array.of_list (List.rev !pred);
    r_succ =
      Array.init !n (fun i ->
          Option.value ~default:[] (Hashtbl.find_opt succ i));
    r_complete = !complete;
  }

let same_exploration ~budget sys =
  let ex = Reach.explore ~budget sys and r = reference_explore ~budget sys in
  if ex.Reach.states <> r.r_states then
    QCheck2.Test.fail_reportf "states differ (%d explored, %d expected)"
      (Array.length ex.Reach.states) (Array.length r.r_states)
  else if ex.Reach.pred <> r.r_pred then QCheck2.Test.fail_report "pred differs"
  else if ex.Reach.succ <> r.r_succ then QCheck2.Test.fail_report "succ differs"
  else if ex.Reach.complete <> r.r_complete then
    QCheck2.Test.fail_report "complete differs"
  else true

(* Budgets small enough that most explorations truncate. *)
let gen_budget = QCheck2.Gen.int_range 1 300

let qcheck_explore_matches_reference =
  qtest ~count:200 "explore = reference BFS on one machine"
    QCheck2.Gen.(triple gen_pattern bool gen_budget)
    (fun (p, exact, budget) ->
      Printf.sprintf "%s (exact %b, budget %d)" (pp_pattern p) exact budget)
    (fun (p, exact, budget) ->
      same_exploration ~budget (Machine.system (Machine.make ~exact p)))

let qcheck_product_explore_matches_reference =
  qtest ~count:150 "explore = reference BFS on a two-machine product"
    QCheck2.Gen.(triple (pair gen_pattern gen_pattern) bool gen_budget)
    (fun ((a, b), exact, budget) ->
      Printf.sprintf "a: %s\nb: %s\nexact %b, budget %d" (pp_pattern a)
        (pp_pattern b) exact budget)
    (fun ((a, b), exact, budget) ->
      (* budget 1: only the product's system is wanted here *)
      let ex, _ =
        Suite_checks.product ~budget:1 (Machine.make ~exact a)
          (Machine.make ~exact b)
      in
      same_exploration ~budget ex.Reach.system)

(* [Machine.equal] is structural equality and [Machine.hash] agrees
   with it: over the explored states, each state's deep copy is equal
   and hashes alike, and equality matches [(=)] on pairs of states. *)
let qcheck_machine_hash_agrees_with_equal =
  qtest ~count:150 "Machine.equal a b => Machine.hash a = Machine.hash b"
    QCheck2.Gen.(triple gen_pattern bool gen_budget)
    (fun (p, exact, budget) ->
      Printf.sprintf "%s (exact %b, budget %d)" (pp_pattern p) exact budget)
    (fun (p, exact, budget) ->
      let states =
        (Reach.explore ~budget (Machine.system (Machine.make ~exact p)))
          .Reach.states
      in
      let n = Array.length states in
      let copy (s : Machine.state) : Machine.state =
        Marshal.from_string (Marshal.to_string s []) 0
      in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          let c = copy s in
          if not (Machine.equal s c && Machine.hash s = Machine.hash c) then
            ok := false;
          for d = 1 to min 8 (n - 1) do
            let t = states.((i + d) mod n) in
            if Machine.equal s t <> (s = t) then ok := false;
            if Machine.equal s t && Machine.hash s <> Machine.hash t then
              ok := false
          done)
        states;
      !ok)

(* ---- commutation: Hopcroft refinement and clamped range counters ---- *)

(* [p] with its ranges drawn again: [lo] up to 7 and [hi - lo] up to 7,
   so bounds on both sides of the clamp constant (3) occur. *)
let gen_wide_pattern =
  QCheck2.Gen.(
    let* p = gen_pattern in
    let* bounds =
      list_repeat (Pattern.range_count p)
        (pair (int_range 1 7) (int_range 0 7))
    in
    let bounds = ref bounds in
    let widen (r : Pattern.range) =
      match !bounds with
      | (lo, extra) :: rest ->
          bounds := rest;
          Pattern.range ~lo ~hi:(lo + extra) r.name
      | [] -> r
    in
    return (Pattern.map_ranges widen p))

(* The uncapped Moore fixpoint: split classes by their successor-class
   rows until no class splits. *)
let moore ~n_ids ~succ obs =
  let n = Array.length obs in
  let count cls =
    let t = Hashtbl.create 16 in
    Array.iter (fun c -> Hashtbl.replace t c ()) cls;
    Hashtbl.length t
  in
  let rec go cls =
    let rows = Hashtbl.create n in
    let next =
      Array.init n (fun i ->
          let row =
            (cls.(i), List.init n_ids (fun id -> cls.(succ.((i * n_ids) + id))))
          in
          match Hashtbl.find_opt rows row with
          | Some c -> c
          | None ->
              let c = Hashtbl.length rows in
              Hashtbl.add rows row c;
              c)
    in
    if count next = count cls then cls else go next
  in
  go obs

(* Two class arrays induce the same partition: class numbers map
   one-to-one. *)
let same_partition a b =
  let ab = Hashtbl.create 16 and ba = Hashtbl.create 16 in
  let agree t x y =
    match Hashtbl.find_opt t x with
    | Some y' -> y = y'
    | None ->
        Hashtbl.add t x y;
        true
  in
  let ok = ref (Array.length a = Array.length b) in
  Array.iteri (fun i x -> if !ok then ok := agree ab x b.(i) && agree ba b.(i) x) a;
  !ok

let qcheck_hopcroft_matches_moore =
  qtest ~count:300 "Hopcroft classes = uncapped Moore fixpoint"
    QCheck2.Gen.(pair gen_wide_pattern (int_range 1 3000))
    (fun (p, budget) -> Printf.sprintf "%s (budget %d)" (pp_pattern p) budget)
    (fun (p, budget) ->
      let m = Machine.make ~exact:true p in
      let ex = Reach.explore ~budget (Machine.system m) in
      (not ex.Reach.complete)
      ||
      let succ = Commute.successors ex in
      (* three observable bits, so the initial partition has up to
         eight blocks *)
      let obs =
        Array.map
          (fun (st : Machine.state) ->
            Bool.to_int (Machine.is_violated st)
            lor (Bool.to_int (Machine.can_time_violate m st) lsl 1)
            lor (Bool.to_int st.matched lsl 2))
          ex.Reach.states
      in
      let n_ids = Machine.n_ids m in
      same_partition
        (Commute.refine ~n_ids ~succ obs)
        (moore ~n_ids ~succ obs))

let qcheck_hopcroft_random_tables =
  qtest ~count:500 "Hopcroft = Moore on random total tables"
    QCheck2.Gen.(
      let* n = int_range 1 60 and* n_ids = int_range 1 4 in
      let* succ = array_repeat (n * n_ids) (int_bound (n - 1)) in
      let* obs = array_repeat n (int_bound 2) in
      return (n_ids, succ, obs))
    (fun (n_ids, succ, obs) ->
      Printf.sprintf "n_ids %d, succ [%s], obs [%s]" n_ids
        (String.concat ";" (Array.to_list (Array.map string_of_int succ)))
        (String.concat ";" (Array.to_list (Array.map string_of_int obs))))
    (fun (n_ids, succ, obs) ->
      same_partition (Commute.refine ~n_ids ~succ obs) (moore ~n_ids ~succ obs))

let race_pairs (r : Commute.result) =
  List.sort compare
    (List.map
       (fun (x : Commute.race) -> (Name.to_string x.a, Name.to_string x.b))
       r.races)

let name_pairs l =
  List.sort compare
    (List.map (fun (a, b) -> (Name.to_string a, Name.to_string b)) l)

(* A race's twin traces are one adjacent swap of its two names apart,
   and their verdicts on the real pattern differ as recorded. *)
let witness_replays p (x : Commute.race) =
  let ab = Array.of_list x.trace_ab and ba = Array.of_list x.trace_ba in
  let differ =
    List.filter
      (fun i -> not (Name.equal ab.(i).Trace.name ba.(i).Trace.name))
      (List.init (min (Array.length ab) (Array.length ba)) Fun.id)
  in
  let final_time = Commute.final_time_for p in
  let passes tr = Compiled.accepts ?final_time p tr in
  Array.length ab = Array.length ba
  && (match differ with
     | [ i; j ] ->
         j = i + 1
         && Name.equal ab.(i).Trace.name x.a
         && Name.equal ab.(j).Trace.name x.b
         && Name.equal ba.(i).Trace.name x.b
         && Name.equal ba.(j).Trace.name x.a
     | _ -> false)
  && passes x.trace_ab = x.ab_passes
  && passes x.trace_ba = not x.ab_passes

(* Robust's bound rules on a commutation result. *)
let bound_of p (c : Commute.result) =
  if c.races <> [] then Robust.Finite 0
  else
    match p with
    | Pattern.Antecedent _ -> Robust.Infinite
    | Pattern.Timed g -> (
        if not c.time_sensitive then Robust.Infinite
        else
          match (Checks.report p).Checks.min_conclusion_events with
          | Some m when g.Pattern.deadline < m ->
              Robust.Finite ((m - g.Pattern.deadline - 1) / 2)
          | _ -> Robust.Finite 0)

let qcheck_clamp_matches_exact =
  qtest ~count:200 "clamped analysis = exact analysis" gen_wide_pattern
    pp_pattern (fun p ->
      let exact = Commute.analyze_exact ~budget:20_000 p in
      (not exact.complete)
      ||
      let clamped = Commute.analyze ~budget:20_000 p in
      let entry = Robust.entry ~budget:20_000 ("e", p) in
      let fail what = QCheck2.Test.fail_reportf "%s differ" what in
      if not clamped.complete then fail "completeness"
      else if race_pairs clamped <> race_pairs exact then fail "race pairs"
      else if name_pairs clamped.commuting <> name_pairs exact.commuting then
        fail "commuting pairs"
      else if clamped.time_sensitive <> exact.time_sensitive then
        fail "time_sensitive"
      else if entry.Robust.bound <> bound_of p exact then fail "bounds"
      else if not (List.for_all (witness_replays p) clamped.races) then
        fail "witness replays"
      else true)

(* The three race pairs of the case-study shape at any [lo]: a
   refinement capped at 64 rounds loses two of them from lo = 64 on,
   because their distinguishing suffix counts up to [lo]. *)
let test_clamp_any_lo () =
  let three =
    [ ("read_img", "set_irq"); ("read_img", "start"); ("set_irq", "start") ]
  in
  List.iter
    (fun (lo, hi) ->
      let p =
        pat
          (Printf.sprintf
             "start => read_img[%d,%d] < set_irq within 120000" lo hi)
      in
      let what = Printf.sprintf "[%d,%d]" lo hi in
      let check (r : Commute.result) =
        Alcotest.(check bool) (what ^ " complete") true r.complete;
        Alcotest.(check (list (pair string string)))
          (what ^ " race pairs") three (race_pairs r);
        List.iter
          (fun x ->
            Alcotest.(check bool) (what ^ " witness replays") true
              (witness_replays p x))
          r.races
      in
      check (Commute.analyze p);
      if hi - lo < 10 then check (Commute.analyze_exact p))
    [ (3, 7); (63, 67); (64, 68); (65, 69); (100, 104); (100, 60000) ]

(* A race on a range bound of 10^9 is found on a clamped run of a few
   events, but its re-expanded twin traces would hold 10^9 events: the
   analysis sizes them first, leaves the pair undecided, and finishes
   at once.  Robust then certifies the conservative bound with an
   [analysis-budget] note. *)
let test_huge_bounds () =
  List.iter
    (fun src ->
      let p = pat src in
      let t0 = Sys.time () in
      let r = Commute.analyze p in
      let e = Robust.entry ("e", p) in
      let fs = Robust.findings { entries = [ e ]; bound = e.bound; decided = e.decided } in
      let spent = Sys.time () -. t0 in
      Alcotest.(check bool) (src ^ " incomplete") false r.complete;
      List.iter
        (fun x ->
          Alcotest.(check bool) (src ^ " witness replays") true
            (witness_replays p x))
        r.races;
      Alcotest.(check bool) (src ^ " bound 0") true (e.bound = Robust.Finite 0);
      Alcotest.(check bool)
        (src ^ " analysis-budget noted") true
        (List.exists
           (fun (f : Finding.t) -> String.equal f.code "analysis-budget")
           fs);
      if spent > 5.0 then Alcotest.failf "%s took %.1f s of CPU" src spent)
    [
      "start => a[1000000000,1000000000] < b within 10";
      "{a[1000000000,2000000000], b} << t";
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "suites",
        [
          Alcotest.test_case "defective findings" `Quick test_defective_suite;
          Alcotest.test_case "clean ipu contract" `Quick test_ipu_suite;
          Alcotest.test_case "sarif well-formed" `Quick test_sarif_well_formed;
          Alcotest.test_case "exit codes + suppress" `Quick
            test_exit_and_suppress;
          Alcotest.test_case "explain covers all codes" `Quick
            test_explain_covers_all_codes;
        ] );
      ( "procedures",
        [
          Alcotest.test_case "deadline exactness" `Quick
            test_deadline_exactness;
          Alcotest.test_case "subsumption direction" `Quick
            test_subsumption_direction;
          Alcotest.test_case "conflict + witness" `Quick
            test_conflict_and_witness;
        ] );
      ( "cross-validation",
        [
          qcheck_violation_witness_replays;
          qcheck_match_witness_replays;
          qcheck_safe_witness_is_safe;
          qcheck_min_events_cross_validates_lint;
          qcheck_subsumption_cross_validation;
          qcheck_conflict_cross_validation;
          qcheck_analyze_never_crashes;
        ] );
      ( "explorer",
        [
          qcheck_explore_matches_reference;
          qcheck_product_explore_matches_reference;
          qcheck_machine_hash_agrees_with_equal;
        ] );
      ( "commutation",
        [
          Alcotest.test_case "three race pairs at any lo" `Quick
            test_clamp_any_lo;
          Alcotest.test_case "huge bounds finish undecided" `Quick
            test_huge_bounds;
          qcheck_hopcroft_matches_moore;
          qcheck_hopcroft_random_tables;
          qcheck_clamp_matches_exact;
        ] );
    ]
