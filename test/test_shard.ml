(* Certified shard-plan analysis and the sequential sharded-execution
   harness: deterministic pins on the committed example suites, the
   cross-checker synchronous-product commutation analysis, the pinned
   non-chronological refusal (sharded verdicts on random certified
   plans are test_oracle's "sharded" mode), slab slicing, the
   exploration memo table and the
   completeness of the Explain registry against every finding code
   emitted by lib/analysis. *)

open Loseq_core
open Loseq_analysis
open Loseq_testutil

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

let ipu = example "specs" "ipu.suite"
let racy = example "specs" "racy.suite"
let catalog = example "specs" "catalog.suite"

let labeled path =
  List.map
    (fun (e : Loseq_verif.Suite.entry) -> (e.label, e.pattern))
    (load path)

let trace name =
  match Trace_io.load_csv (example "traces" name) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s: %s" name msg

let suite_of labeled =
  List.map
    (fun (label, pattern) -> { Loseq_verif.Suite.label; pattern; line = 0 })
    labeled

let verdicts_testable = Alcotest.(list (pair string bool))

let sharded_verdicts plan suite tr =
  Loseq_verif.Sharded.run
    ~plan:(Array.to_list plan.Shard.shards)
    suite tr

(* ---- the committed suites --------------------------------------------- *)

let test_ipu_plan () =
  let plan = Shard.analyze ~shards:4 (labeled ipu) in
  Alcotest.(check int) "4 shards" 4 (Array.length plan.Shard.shards);
  Alcotest.(check bool) "certified" true plan.Shard.certified;
  Alcotest.(check bool)
    (Printf.sprintf "balance %.2f <= 1.5" plan.Shard.balance)
    true
    (plan.Shard.balance <= 1.5);
  (* every checker is placed exactly once *)
  let placed = Array.to_list plan.Shard.shards |> List.concat in
  Alcotest.(check (list int))
    "every checker placed"
    (List.init (Array.length plan.Shard.entries) Fun.id)
    (List.sort compare placed)

let test_ipu_sharded_agrees () =
  let entries = labeled ipu in
  let suite = suite_of entries in
  let plan = Shard.analyze ~shards:4 entries in
  let tr = trace "ipu.csv" in
  Alcotest.check verdicts_testable "ipu.csv sharded = unsharded"
    (Loseq_verif.Suite.check_trace suite tr)
    (sharded_verdicts plan suite tr)

let test_racy_coupled () =
  let entries = labeled racy in
  let plan = Shard.analyze ~shards:4 entries in
  let fs = Shard.findings plan in
  let coupled =
    List.filter (fun (f : Finding.t) -> f.code = "shard-coupled") fs
  in
  Alcotest.(check bool) "shard-coupled emitted" true (coupled <> []);
  (* the handshake racing pair req/ack is pinned to one shard *)
  let handshake_pin =
    List.exists
      (fun (i, (r : Commute.race)) ->
        fst plan.Shard.entries.(i) = "handshake"
        && List.sort compare
             [ Name.to_string r.Commute.a; Name.to_string r.Commute.b ]
           = [ "ack"; "req" ])
      plan.Shard.internal_races
  in
  Alcotest.(check bool) "handshake req/ack pinned" true handshake_pin;
  let hs =
    List.find
      (fun (i, _) -> fst plan.Shard.entries.(i) = "handshake")
      plan.Shard.internal_races
  in
  let shard = plan.Shard.assignment.(fst hs) in
  let alpha = Shard.shard_alphabet plan shard in
  Alcotest.(check bool) "req and ack in that shard's slice" true
    (Name.Set.mem (Name.v "req") alpha && Name.Set.mem (Name.v "ack") alpha)

let test_catalog_plan () =
  let entries = labeled catalog in
  let suite = suite_of entries in
  let plan = Shard.analyze ~shards:4 entries in
  List.iter
    (fun name ->
      let tr = trace name in
      Alcotest.check verdicts_testable
        (name ^ " sharded = unsharded")
        (Loseq_verif.Suite.check_trace suite tr)
        (sharded_verdicts plan suite tr))
    [ "catalog_ok.csv"; "catalog_bad.csv" ]

(* ---- cross-checker products (satellite: suite-level Commute) ---------- *)

(* Both names of the racy pair are shared: the product must report the
   race, and the planner must co-locate the two checkers. *)
let test_product_shared_race () =
  let a = ("fwd", pat "x < y <<! t") in
  let b = ("bwd", pat "y < x <<! u") in
  let r = Commute.analyze_product a b in
  Alcotest.(check bool) "complete" true r.Commute.complete;
  Alcotest.(check (list string))
    "shared names" [ "x"; "y" ]
    (List.map Name.to_string r.Commute.shared);
  let race =
    List.find_opt
      (fun (pr : Commute.product_race) ->
        List.sort compare
          [ Name.to_string pr.Commute.a; Name.to_string pr.Commute.b ]
        = [ "x"; "y" ])
      r.Commute.cross_races
  in
  (match race with
  | None -> Alcotest.fail "expected a cross race on x/y"
  | Some pr ->
      Alcotest.(check bool)
        "twin verdict pairs differ" true
        (pr.Commute.ab_verdicts <> pr.Commute.ba_verdicts));
  let plan = Shard.analyze ~shards:2 [ a; b ] in
  Alcotest.(check int) "co-located"
    plan.Shard.assignment.(0)
    plan.Shard.assignment.(1);
  Alcotest.(check bool) "still certified (intra-shard)" true
    plan.Shard.certified

(* Two checkers share a name but every shared pair commutes: the
   product certifies it and the planner may split them. *)
let test_product_shared_commuting () =
  let a = ("ab", pat "{x, y} <<! t") in
  let b = ("bc", pat "{x, y} <<! u") in
  let r = Commute.analyze_product a b in
  Alcotest.(check bool) "complete" true r.Commute.complete;
  Alcotest.(check bool) "x/y commutes on the product" true
    (List.exists
       (fun (na, nb) ->
         List.sort compare [ Name.to_string na; Name.to_string nb ]
         = [ "x"; "y" ])
       r.Commute.cross_commuting);
  let plan = Shard.analyze ~shards:2 [ a; b ] in
  let e =
    match plan.Shard.edges with [ e ] -> e | _ -> Alcotest.fail "one edge"
  in
  Alcotest.(check bool) "no hard race" true (Shard.hard_races e = []);
  Alcotest.(check bool) "split across shards" false
    (plan.Shard.assignment.(0) = plan.Shard.assignment.(1));
  Alcotest.(check bool) "certified" true plan.Shard.certified

(* ---- the non-chronological refusal ------------------------------------- *)

(* A case the former random gate shrank to (QCHECK_SEED=374687777):
   refused as given, and sharded = unsharded once sorted. *)
let test_non_chronological_pinned () =
  let entries =
    List.mapi
      (fun i src -> (Printf.sprintf "entry-%d" i, pat src))
      [ "a << trig"; "a << trig"; "a < b => c within 0";
        "a[1,2] => b within 37" ]
  in
  let suite = suite_of entries in
  let tr =
    List.map
      (fun (nm, time) -> Trace.event ~time (Name.v nm))
      [ ("a", 1); ("a", 1); ("b", 1); ("a", 1); ("a", 3); ("trig", 4);
        ("trig", 5); ("b", 17); ("a", 22); ("b", 59); ("a", 23); ("b", 79) ]
  in
  let plan = Shard.analyze ~shards:1 entries in
  Alcotest.(check bool) "not chronological" false (Trace.is_chronological tr);
  Alcotest.(check bool) "refused" true
    (match sharded_verdicts plan suite tr with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let sorted =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
      tr
  in
  Alcotest.check verdicts_testable "sorted: sharded = unsharded"
    (Loseq_verif.Suite.check_trace suite sorted)
    (sharded_verdicts plan suite sorted)

(* ---- slab slicing ------------------------------------------------------ *)

(* Slice mid-run, reversing checker order: labels and run state carry,
   and the slice then steps in lockstep with the original.  On the
   swapped trace [handshake] is already violated with a range
   diagnostic, whose recognizer index is global, so the copy must
   rebase it. *)
let test_slice_carries_state () =
  let entries = labeled racy in
  let slice_at name =
    let tr = trace name in
    let n = List.length tr in
    let prefix = List.filteri (fun i _ -> i < n / 2) tr in
    let suffix = List.filteri (fun i _ -> i >= n / 2) tr in
    let eng = Flat.compile entries in
    List.iter (Flat.step_event eng) prefix;
    let members = [ 2; 0; 1 ] in
    let sub = Flat.slice eng members in
    List.iteri
      (fun k ck ->
        Alcotest.(check string)
          "label carried"
          (Flat.label eng ck)
          (Flat.label sub k);
        Alcotest.(check bool)
          "verdict carried" true
          (Flat.persist_checker sub k = Flat.persist_checker eng ck))
      members;
    List.iter
      (fun e ->
        Flat.step_event eng e;
        Flat.step_event sub e)
      suffix;
    let now = Trace.end_time tr in
    Flat.finalize eng ~now;
    Flat.finalize sub ~now;
    List.iteri
      (fun k ck ->
        Alcotest.(check int)
          "final verdict agrees"
          (Flat.verdict_code eng ck)
          (Flat.verdict_code sub k))
      members;
    eng
  in
  ignore (slice_at "racy_ok.csv");
  match Flat.verdict (slice_at "racy_swapped.csv") 0 with
  | Flat.Violated { reason = Diag.Missing _ | Diag.Overflow _; _ } -> ()
  | _ -> Alcotest.fail "handshake: expected a range diagnostic"

(* ---- the exploration memo table (satellite) ---------------------------- *)

let test_memo_caches () =
  let p = pat "start => a[2,4] < irq within 20" in
  Memo.reset ();
  ignore (Checks.findings p);
  let after_first = Memo.explorations_performed () in
  Alcotest.(check bool) "first pass explores" true (after_first > 0);
  ignore (Checks.findings p);
  Alcotest.(check int) "second pass is free" after_first
    (Memo.explorations_performed ());
  (* a different pass over the same entry shares the table: Robust only
     adds the exact-counter exploration *)
  ignore (Robust.certificate [ ("e", p) ]);
  let after_robust = Memo.explorations_performed () in
  Alcotest.(check int) "robust adds only the exact exploration"
    (after_first + 1) after_robust;
  ignore (Robust.certificate [ ("e", p) ]);
  Alcotest.(check int) "certificate re-run is free" after_robust
    (Memo.explorations_performed ())

(* ---- Explain registry completeness (satellite) ------------------------- *)

let analysis_sources () =
  let dirs = [ "../lib/analysis"; "lib/analysis"; "../../lib/analysis" ] in
  match List.find_opt Sys.file_exists dirs with
  | None -> Alcotest.fail "lib/analysis sources not visible to the test"
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml")
      |> List.map (Filename.concat dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every string literal following a [Finding.Error|Warning|Info]
   severity is a candidate code; kebab-case (no spaces, lowercase)
   keeps codes and drops message texts. *)
let emitted_codes source =
  let is_code s =
    s <> ""
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
         s
  in
  let len = String.length source in
  let rec skip_ws i =
    if i < len && (source.[i] = ' ' || source.[i] = '\n' || source.[i] = '\t')
    then skip_ws (i + 1)
    else i
  in
  let literal_at i =
    if i < len && source.[i] = '"' then
      match String.index_from_opt source (i + 1) '"' with
      | Some j -> Some (String.sub source (i + 1) (j - i - 1))
      | None -> None
    else None
  in
  let codes = ref [] in
  List.iter
    (fun sev ->
      let slen = String.length sev in
      let rec scan from =
        match
          if from + slen > len then None
          else if String.sub source from slen = sev then Some from
          else Some (-1)
        with
        | None -> ()
        | Some -1 -> scan (from + 1)
        | Some at -> (
            (match literal_at (skip_ws (at + slen)) with
            | Some lit when is_code lit -> codes := lit :: !codes
            | _ -> ());
            scan (at + slen))
      in
      scan 0)
    [ "Finding.Error"; "Finding.Warning"; "Finding.Info" ];
  List.sort_uniq compare !codes

let test_explain_covers_analysis () =
  let sources =
    List.filter
      (fun f -> Filename.basename f <> "explain.ml")
      (analysis_sources ())
  in
  Alcotest.(check bool) "sources found" true (sources <> []);
  let codes =
    List.sort_uniq compare
      (List.concat_map (fun f -> emitted_codes (read_file f)) sources)
  in
  Alcotest.(check bool) "codes found" true (List.length codes >= 10);
  List.iter
    (fun code ->
      if Explain.find code = None then
        Alcotest.failf "finding code %S has no Explain entry" code)
    codes

let test_explain_has_shard_codes () =
  List.iter
    (fun code ->
      match Explain.find code with
      | Some e ->
          Alcotest.(check string) "code matches" code e.Explain.code
      | None -> Alcotest.failf "missing Explain entry for %S" code)
    [ "shard-coupled"; "shard-imbalance"; "shard-divergence" ]

(* ---- harness plan validation ------------------------------------------ *)

let test_harness_rejects_bad_plans () =
  let entries = labeled racy in
  let suite = suite_of entries in
  let tr = trace "racy_ok.csv" in
  let rejects plan =
    match Loseq_verif.Sharded.run ~plan suite tr with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing checker" true (rejects [ [ 0; 1 ] ]);
  Alcotest.(check bool) "duplicate checker" true
    (rejects [ [ 0; 1 ]; [ 1; 2 ] ]);
  Alcotest.(check bool) "out of range" true (rejects [ [ 0; 1; 2; 3 ] ]);
  Alcotest.(check bool) "partition accepted" false
    (rejects [ [ 1 ]; [ 0; 2 ] ])

let () =
  Alcotest.run "shard"
    [
      ( "plans",
        [
          Alcotest.test_case "ipu: certified balanced plan at N=4" `Quick
            test_ipu_plan;
          Alcotest.test_case "ipu: sharded = unsharded on ipu.csv" `Quick
            test_ipu_sharded_agrees;
          Alcotest.test_case "racy: racing pair pinned to one shard" `Quick
            test_racy_coupled;
          Alcotest.test_case "catalog: sharded = unsharded on twin CSVs"
            `Quick test_catalog_plan;
        ] );
      ( "products",
        [
          Alcotest.test_case "shared racy pair forces co-location" `Quick
            test_product_shared_race;
          Alcotest.test_case "shared name, commuting: split certified" `Quick
            test_product_shared_commuting;
        ] );
      ( "gate",
        [
          Alcotest.test_case "non-chronological trace refused (pinned)"
            `Quick test_non_chronological_pinned;
        ] );
      ( "slab",
        [
          Alcotest.test_case "slice carries labels and run state" `Quick
            test_slice_carries_state;
        ] );
      ("memo", [ Alcotest.test_case "explorations are cached" `Quick
                   test_memo_caches ]);
      ( "explain",
        [
          Alcotest.test_case "every lib/analysis code is registered" `Quick
            test_explain_covers_analysis;
          Alcotest.test_case "shard-* codes are registered" `Quick
            test_explain_has_shard_codes;
        ] );
      ( "harness",
        [
          Alcotest.test_case "plan validation" `Quick
            test_harness_rejects_bad_plans;
        ] );
    ]
