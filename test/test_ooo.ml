(* The speculative out-of-order engine: settled verdicts on any
   K-bounded permutation against the declarative semantics are
   test_oracle's "ooo" mode; here the certificate fast path must commit
   commuting late events in place; rollback must retract speculative
   violations a late arrival disproves; the journal must stay within
   its stated bound however long the stream; and the twin trace
   examples/traces/ipu_ooo.csv must stay a faithful K-scramble of
   ipu.csv. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil
module Engine = Loseq_ooo.Engine
module Metrics = Loseq_obs.Metrics

let ev t nm = Trace.event ~time:t (name nm)

let entry label src : Suite.entry =
  { Suite.label; pattern = pat src; line = 1 }

let to_engine_suite suite =
  List.map (fun (e : Suite.entry) -> (e.Suite.label, e.Suite.pattern)) suite

let passed_of summary = List.map (fun (l, v) -> (l, Backend.passed v)) summary

(* The batch reference runs the structural monitor, built independently
   of the flat engine the speculative and buffered hosts step. *)
let batch =
  Suite.check_trace ~backend:(Backend.per_pattern (fun p -> Backend.direct p))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

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

let load_suite path =
  match Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Suite.pp_error e

(* Load a CSV without the chronology validator: out-of-order rows are
   the whole point of the twin trace. *)
let load_csv path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let csv = Trace_io.Csv.create () in
  let events = ref [] in
  let emit sid time =
    events := { Trace.name = Trace_io.Csv.name csv sid; time } :: !events
  in
  match
    Result.bind (Trace_io.Csv.feed csv source ~emit) (fun () ->
        Trace_io.Csv.finish csv ~emit)
  with
  | Ok () -> List.rev !events
  | Error msg -> Alcotest.failf "%s: %s" path msg

let ipu_suite = load_suite (example "specs" "ipu.suite")
let ipu_trace () = load_csv (example "traces" "ipu.csv")
let ipu_ooo_trace () = load_csv (example "traces" "ipu_ooo.csv")
let ipu_lateness = 75000

let stable_by_time trace =
  List.stable_sort
    (fun (a : Trace.event) (b : Trace.event) -> compare a.Trace.time b.Trace.time)
    trace

let rows trace =
  List.map
    (fun (e : Trace.event) -> (e.Trace.time, Name.to_string e.Trace.name))
    trace

(* How late the most delayed event actually is: the lateness any
   absorbing consumer needs to reconstruct the chronological trace. *)
let required_lateness trace =
  let max_seen = ref (-1) and need = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      need := max !need (!max_seen - e.Trace.time);
      max_seen := max !max_seen e.Trace.time)
    trace;
  !need

(* ---- the committed twin trace ----------------------------------------- *)

let test_twin_sorts_back () =
  let original = ipu_trace () and twin = ipu_ooo_trace () in
  Alcotest.(check int) "same cardinality" (List.length original)
    (List.length twin);
  Alcotest.(check (list (pair int string)))
    "stable sort recovers ipu.csv" (rows original)
    (rows (stable_by_time twin));
  Alcotest.(check bool) "actually scrambled" true (rows original <> rows twin)

let test_twin_required_lateness () =
  (* The number every doc, test and CI gate quotes for ipu_ooo.csv. *)
  Alcotest.(check int) "required lateness" ipu_lateness
    (required_lateness (ipu_ooo_trace ()))

let test_twin_engine_matches_batch () =
  let twin = ipu_ooo_trace () in
  let eng = Engine.create ~lateness:ipu_lateness (to_engine_suite ipu_suite) in
  List.iter
    (fun e ->
      match Engine.offer eng e with
      | `Dropped_late -> Alcotest.failf "dropped: %s" (Trace.to_string [ e ])
      | `Applied | `Commuted | `Replayed _ -> ())
    twin;
  Engine.finalize eng;
  Alcotest.(check (list (pair string bool)))
    "settled verdicts = batch on the chronological trace"
    (batch ipu_suite (ipu_trace ()))
    (passed_of (Engine.report eng));
  let stats = Engine.stats eng in
  Alcotest.(check int) "late arrivals absorbed" 9 stats.Engine.late;
  Alcotest.(check int) "all of them commuted in place" 9
    stats.Engine.commute_hits;
  Alcotest.(check int) "zero rollbacks" 0 stats.Engine.rollbacks;
  Alcotest.(check int) "zero replays" 0 stats.Engine.replayed;
  Alcotest.(check int) "nothing dropped" 0 stats.Engine.dropped_late

let test_twin_engine_matches_buffered_rendering () =
  let twin = ipu_ooo_trace () in
  let eng = Engine.create ~lateness:ipu_lateness (to_engine_suite ipu_suite) in
  List.iter (fun e -> ignore (Engine.offer eng e)) twin;
  Engine.finalize eng;
  let session = Session.create ~lateness:ipu_lateness ipu_suite in
  List.iter (Session.offer_force session) twin;
  let report = Session.finalize session in
  Alcotest.(check (list string))
    "rendered verdicts byte-identical to the buffered session"
    (List.map snd (Report.summary_strings report))
    (Engine.report_strings eng)

(* ---- rollback and retraction ------------------------------------------ *)

let test_rollback_retracts_speculative_violation () =
  (* go@0 arms a deadline at 10; the foreign event at 100 fires it
     speculatively (done has not been seen).  The late done@5 cannot
     commute — the checker is timed and already (speculatively)
     violated — so the engine must roll back, replay, and retract. *)
  let suite = [ entry "p" "go => done within 10" ] in
  let notices = ref [] in
  let eng =
    Engine.create
      ~notice:(fun n -> notices := n :: !notices)
      ~lateness:100 (to_engine_suite suite)
  in
  Alcotest.(check bool) "go applied" true (Engine.offer eng (ev 0 "go") = `Applied);
  Alcotest.(check bool) "foreign applied" true
    (Engine.offer eng (ev 100 "zz") = `Applied);
  (match !notices with
  | [ Engine.Violation { label = "p"; settled = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected one speculative violation notice");
  (match Engine.offer eng (ev 5 "done") with
  | `Replayed n -> Alcotest.(check int) "replayed the journal" 2 n
  | _ -> Alcotest.fail "expected a rollback-and-replay");
  (match !notices with
  | Engine.Retracted { label = "p"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a retraction notice");
  let stats = Engine.stats eng in
  Alcotest.(check int) "one rollback" 1 stats.Engine.rollbacks;
  Alcotest.(check int) "two events re-stepped" 2 stats.Engine.replayed;
  Engine.finalize eng;
  Alcotest.(check (list (pair string bool)))
    "final verdict: satisfied" [ ("p", true) ]
    (passed_of (Engine.report eng))

let test_commute_fast_path_in_place () =
  (* a and b are an unordered premise set: the certificate proves the
     swap verdict-preserving, so the late a@0 commits with no
     rollback. *)
  let suite = [ entry "c" "{a, b} <<! go" ] in
  let eng = Engine.create ~lateness:20 (to_engine_suite suite) in
  Alcotest.(check bool) "b applied" true (Engine.offer eng (ev 10 "b") = `Applied);
  Alcotest.(check bool) "late a commuted in place" true
    (Engine.offer eng (ev 0 "a") = `Commuted);
  ignore (Engine.offer eng (ev 30 "go"));
  let stats = Engine.stats eng in
  Alcotest.(check int) "one commute hit" 1 stats.Engine.commute_hits;
  Alcotest.(check int) "no rollback" 0 stats.Engine.rollbacks;
  Engine.finalize eng;
  Alcotest.(check (list (pair string bool)))
    "agrees with batch on the chronological trace"
    (batch suite [ ev 0 "a"; ev 10 "b"; ev 30 "go" ])
    (passed_of (Engine.report eng))

let test_foreign_late_bypasses () =
  let suite = [ entry "c" "{a, b} <<! go" ] in
  let eng = Engine.create ~lateness:50 (to_engine_suite suite) in
  ignore (Engine.offer eng (ev 0 "a"));
  ignore (Engine.offer eng (ev 20 "xx"));
  Alcotest.(check bool) "late foreign event is a plain apply" true
    (Engine.offer eng (ev 15 "yy") = `Applied);
  Alcotest.(check int) "counted as a commute hit" 1
    (Engine.stats eng).Engine.commute_hits

let test_dropped_late_boundary () =
  (* Same admissibility rule as Reorder: strictly below the watermark
     drops, exactly at the watermark is admitted. *)
  let suite = [ entry "c" "{a, b} <<! go" ] in
  let eng = Engine.create ~lateness:5 (to_engine_suite suite) in
  ignore (Engine.offer eng (ev 0 "a"));
  ignore (Engine.offer eng (ev 100 "xx"));
  Alcotest.(check int) "watermark" 95 (Engine.watermark eng);
  Alcotest.(check bool) "below the watermark drops" true
    (Engine.offer eng (ev 94 "b") = `Dropped_late);
  Alcotest.(check bool) "exactly at the watermark is admitted" true
    (Engine.offer eng (ev 95 "b") <> `Dropped_late);
  Alcotest.(check int) "one drop counted" 1
    (Engine.stats eng).Engine.dropped_late

let test_foreign_gid_late_is_commute_hit () =
  (* the gid path's foreign event (-1) is what a foreign name resolves
     to: a late one is a plain apply counted as a commute hit *)
  let suite = [ entry "c" "{a, b} <<! go" ] in
  let eng = Engine.create ~lateness:50 (to_engine_suite suite) in
  Alcotest.(check int) "foreign names resolve to -1" (-1)
    (Engine.gid eng (name "yy"));
  ignore (Engine.offer_gid eng ~gid:(Engine.gid eng (name "a")) ~time:0);
  ignore (Engine.offer_gid eng ~gid:(-1) ~time:20);
  Alcotest.(check bool) "late foreign gid is a plain apply" true
    (Engine.offer_gid eng ~gid:(-1) ~time:15 = `Applied);
  let s = Engine.stats eng in
  Alcotest.(check (list int)) "late, commute hits, rollbacks" [ 1; 1; 0 ]
    [ s.Engine.late; s.Engine.commute_hits; s.Engine.rollbacks ];
  Alcotest.check_raises "a gid out of range"
    (Invalid_argument "Loseq_ooo.Engine.offer_gid: not a gid") (fun () ->
      ignore (Engine.offer_gid eng ~gid:(-2) ~time:30))

(* ---- the journal -------------------------------------------------------- *)

let test_journal_order () =
  let module J = Loseq_ooo.Journal in
  let j = J.create () in
  let contents () =
    List.init (J.length j) (fun i -> (J.gid j i, J.time j i))
  in
  (* 20 appends outgrow the first 16 cells *)
  for i = 0 to 19 do
    J.append j ~gid:i ~time:(10 * i)
  done;
  let popped = ref [] in
  let pop time = J.pop_before j ~time (fun g t -> popped := (g, t) :: !popped) in
  pop 50;
  Alcotest.(check (list (pair int int)))
    "pop_before hands out the oldest first"
    [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]
    (List.rev !popped);
  (* late arrivals at an existing time land after it, in arrival
     order *)
  List.iter
    (fun g -> J.insert j ~at:(J.insertion_point j ~time:60) ~gid:g ~time:60)
    [ 100; 101; 102 ];
  Alcotest.(check (list (pair int int)))
    "equal-time inserts are stable"
    [ (5, 50); (6, 60); (100, 60); (101, 60); (102, 60); (7, 70) ]
    (List.filteri (fun i _ -> i < 6) (contents ()));
  (* appending past the capacity compacts the popped prefix away *)
  for i = 20 to 39 do
    J.append j ~gid:i ~time:(10 * i)
  done;
  popped := [];
  pop max_int;
  Alcotest.(check (list (pair int int)))
    "every event once, oldest first, across grow and compaction"
    ((5, 50) :: (6, 60)
    :: List.map (fun g -> (g, 60)) [ 100; 101; 102 ]
    @ List.init 33 (fun i -> (i + 7, 10 * (i + 7))))
    (List.rev !popped);
  Alcotest.(check int) "empty" 0 (J.length j)

(* A CSV reader interning only the engine's names: fresh foreign names
   never enter its table, and a foreign name, repeated or not, is
   validated and offered to [keep] on every line. *)
let test_csv_table_bounded () =
  let suite = to_engine_suite ipu_suite in
  let eng = Engine.create ~lateness:0 suite in
  let alphabet =
    Name.Set.cardinal
      (List.fold_left
         (fun acc (_, p) -> Name.Set.union acc (Pattern.alpha p))
         Name.Set.empty suite)
  in
  let asked = ref 0 in
  let keep n =
    incr asked;
    Engine.gid eng n >= 0
  in
  let csv = Trace_io.Csv.create ~keep () in
  let foreign = ref 0 and kept = ref 0 in
  let emit sid _ =
    if sid = Trace_io.Csv.foreign then incr foreign else incr kept
  in
  let feed chunk =
    match Trace_io.Csv.feed csv chunk ~emit with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  in
  feed "0,start\n1,read_img\n";
  for i = 1 to 10_000 do
    feed (Printf.sprintf "%d,fresh_%d\n%d,start\n" (i + 1) i (i + 1))
  done;
  Alcotest.(check (pair int int)) "foreign and kept events" (10_000, 10_002)
    (!foreign, !kept);
  Alcotest.(check int) "the table holds the two suite names" 2
    (Trace_io.Csv.interned csv);
  Alcotest.(check bool) "within the suite alphabet" true
    (Trace_io.Csv.interned csv <= alphabet);
  Alcotest.(check string) "a foreign id names its last line" "fresh_10000"
    (Name.to_string (Trace_io.Csv.name csv Trace_io.Csv.foreign));
  Alcotest.(check int) "each name asked about once" 10_002 !asked;
  for i = 1 to 100 do
    feed (Printf.sprintf "%d,lcdc_refresh\n" (10_001 + i))
  done;
  Alcotest.(check int) "a repeated foreign name asked about every time"
    10_102 !asked;
  Alcotest.(check int) "still two names" 2 (Trace_io.Csv.interned csv)

(* ---- settlement ------------------------------------------------------- *)

let test_settlement_follows_watermark () =
  let suite = [ entry "c" "{a, b} <<! go" ] in
  let settled_notices = ref 0 in
  let eng =
    Engine.create
      ~notice:(function
        | Engine.Settled { label = "c"; _ } -> incr settled_notices
        | _ -> ())
      ~lateness:10 (to_engine_suite suite)
  in
  ignore (Engine.offer eng (ev 0 "go"));
  (* Violated at 0, but the watermark is still behind: speculative. *)
  Alcotest.(check bool) "unsettled while retractable" true
    ((Engine.tri eng).(0) = Backend.Unsettled);
  Alcotest.(check int) "no settlement yet" 0 !settled_notices;
  ignore (Engine.offer eng (ev 20 "xx"));
  (* Watermark 10 passed the decision point 0: definitive. *)
  Alcotest.(check int) "settled mid-stream" 1 !settled_notices;
  Alcotest.(check bool) "tri reports Fail" true
    ((Engine.tri eng).(0) = Backend.Fail);
  Alcotest.(check bool) "marked settled" true (Engine.settled eng).(0);
  Engine.finalize eng;
  Alcotest.(check int) "settlement is emitted once" 1 !settled_notices;
  Alcotest.(check bool) "verdict unchanged by finalize" true
    ((Engine.tri eng).(0) = Backend.Fail)

(* ---- the journal bound ----------------------------------------------- *)

let gen_equivalence_case =
  QCheck2.Gen.(
    let* p1 = gen_pattern in
    let* p2 = gen_pattern in
    let* t1 = gen_timed_trace p1 in
    let* t2 = gen_timed_trace p2 in
    let merged = stable_by_time (t1 @ t2) in
    let* k = int_range 0 40 in
    let* scrambled = gen_scramble k merged in
    return (p1, p2, k, merged, scrambled))

let print_equivalence_case (p1, p2, k, merged, scrambled) =
  Format.asprintf "p1 = %a@.p2 = %a@.k = %d@.chronological = %s@.arrival = %s"
    Pattern.pp p1 Pattern.pp p2 k
    (Trace.to_string merged)
    (Trace.to_string scrambled)

(* The bound journal.mli states, after every offer: the journal holds
   at most the suite-alphabet events offered, not dropped, and stamped
   at or after the watermark. *)
let test_journal_bound =
  qtest ~count:300 "journal within its stated bound" gen_equivalence_case
    print_equivalence_case (fun (p1, p2, k, _, scrambled) ->
      let alpha = Name.Set.union (Pattern.alpha p1) (Pattern.alpha p2) in
      let eng = Engine.create ~lateness:k [ ("p1", p1); ("p2", p2) ] in
      let kept = ref [] in
      List.for_all
        (fun (e : Trace.event) ->
          (match Engine.offer eng e with
          | `Dropped_late -> ()
          | `Applied | `Commuted | `Replayed _ ->
              if Name.Set.mem e.Trace.name alpha then
                kept := e.Trace.time :: !kept);
          let wm = Engine.watermark eng in
          Engine.journal_depth eng
          <= List.length (List.filter (fun t -> t >= wm) !kept))
        scrambled)

(* ---- a bounded journal on a long racy stream ------------------------- *)

(* servebench's racy workload, rebuilt: [copies] renamed instances of
   racy.suite, each replaying racy_ok.csv once per 600-tick period with
   its first two events swapped (every req arrives 100 ticks late,
   after the ack it must precede, and does not commute with it).  The
   instances are phase-shifted evenly over the period and merged by
   send time: an event goes out once its instance has sent its
   furthest time so far. *)
let racy_stream ~copies ~episodes =
  let suite = load_suite (example "specs" "racy.suite") in
  let play =
    match load_csv (example "traces" "racy_ok.csv") with
    | a :: b :: rest -> b :: a :: rest
    | _ -> Alcotest.fail "racy_ok.csv has fewer than two events"
  in
  let period = 600 in
  let suffixed c s = Printf.sprintf "%s_%d" s c in
  let renamed c n = name (suffixed c (Name.to_string n)) in
  let entries =
    List.concat
      (List.init copies (fun c ->
           List.map
             (fun (e : Suite.entry) ->
               ( suffixed c e.Suite.label,
                 rename_pattern (renamed c) e.Suite.pattern ))
             suite))
  in
  let keyed = ref [] and seq = ref 0 in
  for c = 0 to copies - 1 do
    let offset = c * period / copies and reach = ref 0 in
    for ep = 0 to episodes - 1 do
      List.iter
        (fun (e : Trace.event) ->
          let time = e.Trace.time + offset + (ep * period) in
          reach := max !reach time;
          keyed :=
            ((!reach, c, !seq), Trace.event ~time (renamed c e.Trace.name))
            :: !keyed;
          incr seq)
        play
    done
  done;
  (entries, List.map snd (List.sort compare !keyed))

let racy_stats ~copies ~episodes =
  let entries, stream = racy_stream ~copies ~episodes in
  let eng = Engine.create ~lateness:(required_lateness stream) entries in
  List.iter
    (fun e ->
      if Engine.offer eng e = `Dropped_late then
        Alcotest.failf "dropped: %s" (Trace.to_string [ e ]))
    stream;
  Engine.finalize eng;
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ " passes") true (Backend.passed v))
    (Engine.report eng);
  Engine.stats eng

(* Doubling the stream must not grow the journal or the replay a
   rollback costs, although the late reqs come closer together than
   the lateness bound, so some late event is always due inside the
   window. *)
let test_racy_journal_bounded () =
  let at250 = racy_stats ~copies:32 ~episodes:250
  and at500 = racy_stats ~copies:32 ~episodes:500 in
  Alcotest.(check bool) "rollbacks happen" true (at250.Engine.rollbacks > 0);
  Alcotest.(check int) "max_journal, 250 vs 500 episodes"
    at250.Engine.max_journal at500.Engine.max_journal;
  Alcotest.(check int) "replayed per rollback, 250 vs 500 episodes"
    (at250.Engine.replayed / at250.Engine.rollbacks)
    (at500.Engine.replayed / at500.Engine.rollbacks)

(* ---- observability ---------------------------------------------------- *)

let test_metrics_reconcile_with_stats () =
  let metrics = Metrics.create () in
  let eng =
    Engine.create ~metrics ~lateness:ipu_lateness (to_engine_suite ipu_suite)
  in
  let trace = ipu_ooo_trace () in
  List.iter (fun e -> ignore (Engine.offer eng e)) trace;
  Engine.finalize eng;
  let stats = Engine.stats eng in
  let counter n = Metrics.read_counter metrics ~name:n () in
  let gauge n = Metrics.read_gauge metrics ~name:n () in
  Alcotest.(check (option int))
    "commute hits" (Some stats.Engine.commute_hits)
    (counter "loseq_ooo_commute_hits_total");
  Alcotest.(check (option int))
    "late arrivals" (Some stats.Engine.late)
    (counter "loseq_ooo_late_events_total");
  Alcotest.(check (option int))
    "rollbacks" (Some stats.Engine.rollbacks)
    (counter "loseq_ooo_rollbacks_total");
  Alcotest.(check (option int))
    "replayed" (Some stats.Engine.replayed)
    (counter "loseq_ooo_replayed_events_total");
  Alcotest.(check (option int))
    "dropped late" (Some stats.Engine.dropped_late)
    (counter "loseq_ooo_dropped_late_total");
  Alcotest.(check (option int))
    "settlements" (Some stats.Engine.settled_events)
    (counter "loseq_ooo_settled_total");
  Alcotest.(check (option int))
    "journal depth gauge" (Some (Engine.journal_depth eng))
    (gauge "loseq_ooo_journal_depth");
  Alcotest.(check (option int))
    "watermark gauge" (Some (Engine.watermark eng))
    (gauge "loseq_ooo_watermark");
  (* No rollback on the twin trace, so every event is stepped once
     through its dispatch row: one step per subscribed checker. *)
  Alcotest.(check int) "no rollback" 0 stats.Engine.rollbacks;
  let subscribed (e : Trace.event) =
    List.length
      (List.filter
         (fun (en : Suite.entry) ->
           Name.Set.mem e.Trace.name (Pattern.alpha en.Suite.pattern))
         ipu_suite)
  in
  Alcotest.(check (option int))
    "flat steps, row length per event"
    (Some (List.fold_left (fun n e -> n + subscribed e) 0 trace))
    (Metrics.read_counter metrics ~name:"loseq_backend_steps_total"
       ~labels:[ ("backend", "flat") ] ())

(* ---- usage text pins (serve/check/suite --help) ----------------------- *)

let test_backend_doc_covers_every_backend () =
  Alcotest.(check (list string))
    "the four backends" [ "direct"; "compiled"; "flat"; "psl" ]
    Cli_doc.backend_names;
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "--backend doc mentions %s" b)
        true
        (contains Cli_doc.backend_doc b))
    Cli_doc.backend_names

let test_serve_modes_doc_pins_ooo () =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "serve usage mentions %s" needle)
        true
        (contains Cli_doc.serve_modes_doc needle))
    [ "--ooo"; "--lateness"; "speculative"; "settled"; "retracted" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "--ooo doc mentions %s" needle)
        true
        (contains Cli_doc.ooo_doc needle))
    [ "--checkpoint"; "--resume"; "rollback" ]

(* The serve backends (flat buffered by default, always flat under
   --ooo, which refuses --backend) are stated in both the --backend
   description and the modes paragraph. *)
let test_serve_backend_defaults_doc () =
  List.iter
    (fun (doc_name, doc, needles) ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s mentions %S" doc_name needle)
            true (contains doc needle))
        needles)
    [
      ( "--backend doc",
        Cli_doc.backend_doc,
        [ "$(b,serve) hosts buffered sessions on $(b,flat)";
          "$(b,--ooo) sessions always run on $(b,flat) and refuse \
           $(b,--backend)" ] );
      ( "serve modes doc",
        Cli_doc.serve_modes_doc,
        [ "runs on the $(b,flat) backend";
          "(always on the $(b,flat) backend)" ] );
    ]

let () =
  Alcotest.run "ooo"
    [
      ( "twin-trace",
        [
          Alcotest.test_case "sorts back to ipu.csv" `Quick test_twin_sorts_back;
          Alcotest.test_case "required lateness is 75000" `Quick
            test_twin_required_lateness;
          Alcotest.test_case "engine matches batch" `Quick
            test_twin_engine_matches_batch;
          Alcotest.test_case "engine matches buffered rendering" `Quick
            test_twin_engine_matches_buffered_rendering;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "rollback retracts" `Quick
            test_rollback_retracts_speculative_violation;
          Alcotest.test_case "commute fast path" `Quick
            test_commute_fast_path_in_place;
          Alcotest.test_case "foreign late bypass" `Quick
            test_foreign_late_bypasses;
          Alcotest.test_case "foreign gid late bypass" `Quick
            test_foreign_gid_late_is_commute_hit;
          Alcotest.test_case "dropped-late boundary" `Quick
            test_dropped_late_boundary;
          Alcotest.test_case "settlement follows watermark" `Quick
            test_settlement_follows_watermark;
        ] );
      ( "journal",
        [
          Alcotest.test_case "gid and time order" `Quick test_journal_order;
          Alcotest.test_case "CSV name table bounded" `Quick
            test_csv_table_bounded;
          test_journal_bound;
          Alcotest.test_case "racy x32 journal bounded" `Quick
            test_racy_journal_bounded;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics reconcile" `Quick
            test_metrics_reconcile_with_stats;
        ] );
      ( "usage",
        [
          Alcotest.test_case "backend doc" `Quick
            test_backend_doc_covers_every_backend;
          Alcotest.test_case "serve modes doc" `Quick
            test_serve_modes_doc_pins_ooo;
          Alcotest.test_case "serve backend defaults" `Quick
            test_serve_backend_defaults_doc;
        ] );
    ]
