(* Commutation analysis and lateness-robustness certificates:
   deterministic pins on the committed example suites (including the
   twin-trace CSVs), replay of every racy-pair witness through both the
   direct and flat backends, qcheck swap-invariance of
   commuting-declared pairs, and completeness of the Explain
   registry. *)

open Loseq_core
open Loseq_analysis
open Loseq_testutil

let load path =
  match Loseq_verif.Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Loseq_verif.Suite.pp_error e

(* Locate a committed example whether the binary runs from the
   workspace root (dune exec) or the test directory (dune runtest). *)
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

let racy = example "specs" "racy.suite"
let ipu = example "specs" "ipu.suite"

let labeled path =
  List.map
    (fun (e : Loseq_verif.Suite.entry) -> (e.label, e.pattern))
    (load path)

(* Run one pattern over a witness trace on a given backend, finalizing
   at the instant the twin traces are decided at. *)
let passes_via (factory : Backend.factory) ?final_time p tr =
  let b = factory p in
  List.iter (fun e -> ignore (b.Backend.step e)) tr;
  let now =
    match final_time with Some t -> t | None -> Trace.end_time tr
  in
  Backend.passed (b.Backend.finalize ~now)

let backends =
  [
    ("direct", fun p -> Backend.direct p);
    ("flat", Backend.flat);
  ]

let name_strings (a, b) =
  List.sort compare [ Name.to_string a; Name.to_string b ]

(* ---- the committed racy suite ---------------------------------------- *)

let test_racy_certificate () =
  let cert = Robust.certificate (labeled racy) in
  Alcotest.(check bool) "suite bound is 0" true (cert.bound = Robust.Finite 0);
  Alcotest.(check bool) "certificate decided" true cert.decided;
  let entry l =
    List.find (fun (e : Robust.entry) -> String.equal e.label l) cert.entries
  in
  let handshake = entry "handshake" in
  Alcotest.(check bool) "handshake has races" true (handshake.races <> []);
  Alcotest.(check bool)
    "handshake req/ack is racy" true
    (List.exists
       (fun (r : Commute.race) ->
         name_strings (r.a, r.b) = [ "ack"; "req" ])
       handshake.races);
  let commit = entry "commit_guard" in
  Alcotest.(check bool)
    "cfg_addr/cfg_size commute" true
    (List.exists
       (fun pair -> name_strings pair = [ "cfg_addr"; "cfg_size" ])
       commit.commuting);
  Alcotest.(check bool) "commit_guard still racy" true (commit.races <> []);
  let irq = entry "irq_window" in
  Alcotest.(check bool) "irq_window is time-fragile" true irq.time_fragile;
  Alcotest.(check bool)
    "irq_window time bound 0" true
    (irq.time_bound = Robust.Finite 0)

let test_racy_findings () =
  let fs = Robust.race_findings (labeled racy) in
  let codes = List.map (fun (f : Finding.t) -> f.code) fs in
  Alcotest.(check bool) "race-pair emitted" true (List.mem "race-pair" codes);
  Alcotest.(check bool)
    "jitter-fragile emitted" true
    (List.mem "jitter-fragile" codes);
  List.iter
    (fun (f : Finding.t) ->
      if String.equal f.code "race-pair" then
        Alcotest.(check bool) "race-pair carries a witness" true
          (f.witness <> None))
    fs;
  (* an oversized hosting window turns into errors *)
  let unsafe =
    Robust.findings ~lateness:1 (Robust.certificate (labeled racy))
  in
  Alcotest.(check int) "reorder-unsafe is an error" 2 (Finding.exit_code unsafe)

(* An entry whose bound a race fixed before the budget cut its
   exploration is decided, but its race list may be incomplete: it
   says so with an [analysis-budget] note, which a full budget
   drops. *)
let test_incomplete_race_list () =
  let budget_notes cert =
    List.filter_map
      (fun (f : Finding.t) ->
        if String.equal f.code "analysis-budget" then f.subject else None)
      (Robust.findings cert)
  in
  let cut = Robust.certificate ~budget:2 (labeled racy) in
  let handshake =
    List.find (fun (e : Robust.entry) -> e.label = "handshake") cut.entries
  in
  Alcotest.(check bool) "handshake decided" true handshake.decided;
  Alcotest.(check bool) "handshake incomplete" false handshake.complete;
  Alcotest.(check bool) "handshake has a race" true (handshake.races <> []);
  Alcotest.(check bool)
    "handshake bound 0" true
    (handshake.bound = Robust.Finite 0);
  Alcotest.(check bool)
    "every incomplete entry is noted" true
    (List.for_all
       (fun (e : Robust.entry) ->
         e.complete || List.mem e.label (budget_notes cut))
       cut.entries);
  let full = Robust.certificate (labeled racy) in
  Alcotest.(check (list string))
    "no note at the full budget" [] (budget_notes full)

let test_ipu_certificate () =
  let cert = Robust.certificate ~budget:20_000 (labeled ipu) in
  Alcotest.(check bool) "ipu bound is 0" true (cert.bound = Robust.Finite 0)

(* The committed twin CSV pair: identical except for one adjacent
   req/ack swap, and the suite verdict flips. *)
let test_twin_traces () =
  let suite = load racy in
  let trace name =
    match Trace_io.load_csv (example "traces" name) with
    | Ok t -> t
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let ok = trace "racy_ok.csv" and swapped = trace "racy_swapped.csv" in
  Alcotest.(check int) "same length" (Trace.length ok) (Trace.length swapped);
  let verdict tr = Loseq_verif.Suite.check_trace suite tr in
  let passed label tr =
    match List.assoc_opt label (verdict tr) with
    | Some b -> b
    | None -> Alcotest.failf "no verdict for %s" label
  in
  Alcotest.(check bool) "handshake passes in-order" true
    (passed "handshake" ok);
  Alcotest.(check bool) "handshake fails swapped" false
    (passed "handshake" swapped);
  Alcotest.(check bool) "commit_guard unaffected" true
    (passed "commit_guard" ok && passed "commit_guard" swapped)

(* ---- witness replay through both backends ---------------------------- *)

let check_races_diverge label p =
  let r = Commute.analyze p in
  let ft = Commute.final_time_for p in
  List.iter
    (fun (race : Commute.race) ->
      List.iter
        (fun (bname, factory) ->
          let ab = passes_via factory ?final_time:ft p race.trace_ab in
          let ba = passes_via factory ?final_time:ft p race.trace_ba in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: ab verdict matches" label bname)
            race.ab_passes ab;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: twins diverge" label bname)
            (not race.ab_passes) ba)
        backends)
    r.races

let test_witnesses_diverge () =
  List.iter (fun (label, p) -> check_races_diverge label p) (labeled racy)

(* The race pairs and the lateness certificate are statements about the
   monitored language, not about an engine: replaying every twin
   witness must give the same verdict whichever backend hosts it, so
   the certificate a flat deployment relies on is the same one the
   compiled analysis produced. *)
let test_witnesses_backend_agree () =
  List.iter
    (fun (label, p) ->
      let r = Commute.analyze p in
      let ft = Commute.final_time_for p in
      List.iter
        (fun (race : Commute.race) ->
          List.iter
            (fun tr ->
              let verdicts =
                List.map
                  (fun (bname, factory) ->
                    (bname, passes_via factory ?final_time:ft p tr))
                  backends
              in
              let reference = snd (List.hd verdicts) in
              List.iter
                (fun (bname, v) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s agrees on the twin" label bname)
                    reference v)
                verdicts)
            [ race.trace_ab; race.trace_ba ])
        r.races)
    (labeled racy)

(* ---- qcheck ----------------------------------------------------------- *)

(* Traces with frequent timestamp ties, so that the tie-swap half of the
   robustness claim is actually exercised on timed patterns. *)
let gen_pattern_and_tie_trace =
  QCheck2.Gen.(
    let* p = gen_pattern in
    let* word = gen_alpha_word p in
    let* gaps = list_size (return (List.length word)) (int_range 0 1) in
    let time = ref 0 in
    let trace =
      List.map2
        (fun n gap ->
          time := !time + gap;
          { Trace.name = n; time = !time })
        word gaps
    in
    return (p, trace))

let print_pattern_and_tie_trace (p, trace) =
  Format.asprintf "@[<v>pattern: %a@,trace: %s@]" Pattern.pp p
    (Trace.to_string trace)

let swap_at i tr =
  let arr = Array.of_list tr in
  let a = arr.(i) and b = arr.(i + 1) in
  arr.(i) <- { a with Trace.name = b.Trace.name };
  arr.(i + 1) <- { b with Trace.name = a.Trace.name };
  Array.to_list arr

(* (a) pairs the analysis declares commuting never flip the concrete
   verdict under an adjacent swap — for untimed patterns at any
   timestamp gap, for timed patterns when the two events are stamped
   identically (the certificate's tie-swap envelope; a larger gap moves
   deadline arithmetic, which is [time_bound]'s business, not
   commutation's). *)
let test_commuting_swaps =
  qtest ~count:150 "commuting pairs are swap-invariant"
    gen_pattern_and_tie_trace print_pattern_and_tie_trace (fun (p, trace) ->
      let r = Commute.analyze ~budget:10_000 p in
      let commuting x y =
        List.exists
          (fun (a, b) ->
            (Name.equal a x && Name.equal b y)
            || (Name.equal a y && Name.equal b x))
          r.commuting
      in
      let deadline_slack =
        match p with
        | Pattern.Timed t -> t.Pattern.deadline + 1
        | Pattern.Antecedent _ -> 1
      in
      let arr = Array.of_list trace in
      let ok = ref true in
      for i = 0 to Array.length arr - 2 do
        let a = arr.(i) and b = arr.(i + 1) in
        let tie_ok =
          match p with
          | Pattern.Antecedent _ -> true
          | Pattern.Timed _ -> a.Trace.time = b.Trace.time
        in
        if
          tie_ok
          && (not (Name.equal a.Trace.name b.Trace.name))
          && commuting a.Trace.name b.Trace.name
        then begin
          let swapped = swap_at i trace in
          List.iter
            (fun final_time ->
              let v tr = Compiled.accepts ?final_time p tr in
              if v trace <> v swapped then ok := false)
            [ None; Some (Trace.end_time trace + deadline_slack) ]
        end
      done;
      !ok)

(* (b) every emitted racy-pair witness diverges when replayed through
   both backends (check_races_diverge alcotest-fails otherwise, and the
   analyzer itself raises on twins that agree). *)
let test_random_witnesses =
  qtest ~count:150 "racy witnesses diverge on both backends" gen_pattern
    (Format.asprintf "%a" Pattern.pp) (fun p ->
      check_races_diverge "random" p;
      true)

(* ---- canonical analysis keys ------------------------------------------ *)

(* The per-entry analyses run on a pattern's canonical form and rename
   the result back; these pin that a renamed pattern gets the renamed
   analysis, that patterns of one shape but different name ranks never
   share a result, and that renamed suite copies cost one exploration. *)

let rename_trace f =
  List.map (fun (e : Trace.event) -> { e with Trace.name = f e.Trace.name })

let rename_races f =
  List.map (fun (x : Commute.race) ->
      {
        x with
        a = f x.a;
        b = f x.b;
        trace_ab = rename_trace f x.trace_ab;
        trace_ba = rename_trace f x.trace_ba;
      })

let rename_pairs f = List.map (fun (a, b) -> (f a, f b))

let rename_commute f (r : Commute.result) =
  {
    r with
    pattern = rename_pattern f r.pattern;
    races = rename_races f r.races;
    commuting = rename_pairs f r.commuting;
  }

let rename_report f (r : Checks.report) =
  {
    r with
    pattern = rename_pattern f r.pattern;
    violation_witness = Option.map (rename_trace f) r.violation_witness;
    match_witness = Option.map (rename_trace f) r.match_witness;
    safe_witness = Option.map (rename_trace f) r.safe_witness;
    dead_names = List.map f r.dead_names;
  }

let rename_entry ~label f (e : Robust.entry) =
  {
    e with
    label;
    pattern = rename_pattern f e.pattern;
    races = rename_races f e.races;
    commuting = rename_pairs f e.commuting;
  }

let map_of pairs nm =
  match List.assoc_opt nm pairs with Some nm' -> nm' | None -> nm

(* An order-preserving renaming of [p]'s alphabet: rank [i] gets a
   fixed-width increasing number between a shared random prefix and a
   random suffix, so names change length and letters but never their
   relative order. *)
let gen_order_preserving p =
  let alpha = Name.Set.elements (Pattern.alpha p) in
  let k = List.length alpha in
  QCheck2.Gen.(
    let chars = oneofl [ 'A'; 'Q'; 'z'; 'a'; '_'; '7' ] in
    let* prefix = string_size ~gen:chars (int_range 1 3) in
    let* gaps = list_size (return k) (int_range 1 1000) in
    let* suffixes =
      list_size (return k) (string_size ~gen:chars (int_range 0 3))
    in
    let sum = ref 0 in
    let ranks = List.map (fun g -> sum := !sum + g; !sum) gaps in
    let renamed n s = Name.v (Printf.sprintf "%s%07d%s" prefix n s) in
    return (List.combine alpha (List.map2 renamed ranks suffixes)))

let print_renaming (p, pairs) =
  Format.asprintf "@[<v>pattern: %a@,renaming: %s@]" Pattern.pp p
    (String.concat ", "
       (List.map
          (fun (a, b) -> Name.to_string a ^ "->" ^ Name.to_string b)
          pairs))

let budget = 10_000

let analyses p =
  ( Commute.analyze ~budget p,
    Checks.report ~budget p,
    Robust.entry ~budget ("e", p) )

let test_rename_equivariant =
  qtest ~count:100 "renamed pattern, renamed analysis"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let* pairs = gen_order_preserving p in
      return (p, pairs))
    print_renaming
    (fun (p, pairs) ->
      let f = map_of pairs in
      let q = rename_pattern f p in
      let expected (c, r, e) =
        (rename_commute f c, rename_report f r, rename_entry ~label:"e" f e)
      in
      Memo.reset ();
      let from_p = analyses p in
      (* warm: q is answered from p's cached canonical result *)
      let warm = analyses q in
      Memo.reset ();
      let cold = analyses q in
      warm = expected from_p && cold = expected from_p)

(* Same shape, names permuted: the canonical forms differ unless the
   permutation happens to preserve the name order, and a result
   computed for one must never be served for the other. *)
let test_no_false_sharing =
  qtest ~count:100 "one shape, other name ranks: no shared result"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let alpha = Name.Set.elements (Pattern.alpha p) in
      let* shuffled = shuffle_l alpha in
      return (p, List.combine alpha shuffled))
    print_renaming
    (fun (p, pairs) ->
      let q = rename_pattern (map_of pairs) p in
      Memo.reset ();
      ignore (analyses p);
      let warm = analyses q in
      Memo.reset ();
      warm = analyses q)

(* A suffix is not order-preserving: a < aA, but aA_1 < a_1 ('A' sorts
   before '_').  The two patterns have one shape and different
   canonical forms; each keeps its own races. *)
let test_order_flip () =
  let p = pat "a < aA <<! t" and q = pat "a_1 < aA_1 <<! t_1" in
  Alcotest.(check bool)
    "canonical forms differ" false
    (Pattern.equal
       (Canon.pattern (Canon.make p))
       (Canon.pattern (Canon.make q)));
  Memo.reset ();
  ignore (Commute.analyze p);
  let warm = Commute.analyze q in
  Memo.reset ();
  let cold = Commute.analyze q in
  Alcotest.(check bool) "warm = cold" true (warm = cold);
  Alcotest.check pattern_testable "concrete pattern kept" q warm.pattern;
  List.iter
    (fun (r : Commute.race) ->
      Alcotest.(check bool)
        (Printf.sprintf "race %s/%s in name order" (Name.to_string r.a)
           (Name.to_string r.b))
        true
        (Name.compare r.a r.b < 0))
    warm.races;
  Alcotest.(check bool)
    "a_1/aA_1 race, aA_1 first" true
    (List.exists
       (fun (r : Commute.race) ->
         Name.to_string r.a = "aA_1" && Name.to_string r.b = "a_1")
       warm.races)

(* The servebench ipu workload: copies of ipu.suite with every name
   (and label) suffixed by _i, plus the end-of-stream sentinel. *)
let suffixed i nm = Name.v (Printf.sprintf "%s_%d" (Name.to_string nm) i)

let ipu_copies n =
  List.concat
    (List.init n (fun i ->
         List.map
           (fun (label, p) ->
             (Printf.sprintf "%s_%d" label i, rename_pattern (suffixed i) p))
           (labeled ipu)))
  @ [ ("end_of_stream", pat "eos_ready <<! eos") ]

let test_copies_explore_once () =
  Memo.reset ();
  ignore (Robust.certificate ~budget:20_000 (ipu_copies 1));
  let one = Memo.explorations_performed () in
  Memo.reset ();
  let cert = Robust.certificate ~budget:20_000 (ipu_copies 16) in
  Alcotest.(check int)
    "16 copies explore as much as 1" one
    (Memo.explorations_performed ());
  let per_copy = List.length (labeled ipu) in
  let copy0 = List.filteri (fun j _ -> j < per_copy) cert.entries in
  List.iteri
    (fun j (e : Robust.entry) ->
      if j < 16 * per_copy then begin
        let i = j / per_copy and e0 = List.nth copy0 (j mod per_copy) in
        let unsuffix nm =
          let s = Name.to_string nm in
          Name.v (String.sub s 0 (String.length s - 2))
        in
        let f nm = suffixed i (unsuffix nm) in
        Alcotest.(check bool)
          (e.label ^ " = copy 0 renamed")
          true
          (e = rename_entry ~label:e.label f e0)
      end)
    cert.entries

(* Errors name the user's pattern, not its canonical form. *)
let test_ill_formed_concrete () =
  let p =
    Pattern.antecedent
      [ Pattern.single (name "a"); Pattern.single (name "a") ]
      ~trigger:(name "b")
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Ill_formed" what
    | exception Wellformed.Ill_formed (p', _) ->
        Alcotest.check pattern_testable (what ^ " names the pattern") p p'
  in
  raises "Commute.analyze" (fun () -> ignore (Commute.analyze p));
  raises "Checks.report" (fun () -> ignore (Checks.report p));
  raises "Robust.certificate" (fun () ->
      ignore (Robust.certificate [ ("bad", p) ]));
  let out = Filename.temp_file "loseq_ill_formed" ".ndjson" in
  let oc = open_out_bin out in
  let code =
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    Loseq_ingest.Server.serve ~ooo:true ~lateness:5 ~out:oc ~input:`Stdin
      [ { Loseq_verif.Suite.label = "bad"; pattern = p; line = 1 } ]
  in
  let records = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "serve --ooo exit code" 2 code;
  Alcotest.(check string)
    "serve --ooo error record"
    "{\"type\":\"error\",\"message\":\"ill-formed pattern a < a << \
     b:\\nname a is used by two ranges of the pattern\"}\n"
    records

(* ---- Explain completeness -------------------------------------------- *)

(* Every finding code any checker in the code base can emit.  Keep in
   sync with the emission sites in Checks, Suite_checks, Robust and
   Lint — the dynamic half below catches codes this list misses only if
   the committed suites happen to trigger them. *)
let all_emittable =
  [
    "violation-unsat";
    "vacuous-unviolatable";
    "match-unsat";
    "dead-name";
    "deadline-infeasible";
    "deadline-tight";
    "subsumed-checker";
    "equivalent-checkers";
    "conflicting-pair";
    "race-pair";
    "jitter-fragile";
    "reorder-unsafe";
    "analysis-budget";
    "singleton-disjunction";
    "zero-deadline";
    "tight-deadline";
    "wide-range";
    "huge-counter";
    "state-space";
    "unbounded-trigger";
    (* mutation / coverage quality gate (Mutate, Cover) *)
    "mutant-survived";
    "mutation-kill-floor";
    "coverage-gap";
    "backend-divergence";
  ]

let test_explain_complete () =
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " has an Explain entry")
        true
        (Explain.find code <> None))
    all_emittable;
  (* dynamic half: whatever actually fires on the committed suites *)
  let items path =
    List.map
      (fun (e : Loseq_verif.Suite.entry) ->
        Analysis.item ~file:path ~line:e.line e.label e.pattern)
      (load path)
  in
  let fs =
    Analysis.analyze (items racy @ items (example "specs" "defective.suite"))
    @ Robust.findings ~lateness:1024 (Robust.certificate (labeled racy))
  in
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (f.code ^ " emitted and explained")
        true
        (Explain.find f.code <> None))
    fs

let () =
  Alcotest.run "robust"
    [
      ( "certificate",
        [
          Alcotest.test_case "racy.suite certificate" `Quick
            test_racy_certificate;
          Alcotest.test_case "racy.suite findings" `Quick test_racy_findings;
          Alcotest.test_case "incomplete race list noted" `Quick
            test_incomplete_race_list;
          Alcotest.test_case "ipu.suite certificate" `Quick
            test_ipu_certificate;
          Alcotest.test_case "twin trace CSVs" `Quick test_twin_traces;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "committed suites diverge" `Quick
            test_witnesses_diverge;
          Alcotest.test_case "backends agree on twins" `Quick
            test_witnesses_backend_agree;
          test_random_witnesses;
        ] );
      ("commutation", [ test_commuting_swaps ]);
      ( "canonical",
        [
          test_rename_equivariant;
          test_no_false_sharing;
          Alcotest.test_case "order-flipping suffix" `Quick test_order_flip;
          Alcotest.test_case "16 ipu copies explore once" `Quick
            test_copies_explore_once;
          Alcotest.test_case "errors name the concrete pattern" `Quick
            test_ill_formed_concrete;
        ] );
      ("explain", [ Alcotest.test_case "completeness" `Quick test_explain_complete ]);
    ]
