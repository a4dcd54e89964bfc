(* Streaming sessions, pinned cases: a suite hosted live decides what
   the batch checker decides, reports deadlines mid-stream, absorbs
   bounded disorder, drops what comes too late, and exerts backpressure
   instead of dying; on random samples, a session decides what the
   batch checker decides, with and without bounded jitter.  Sessions
   admitting by name, by id and from the wire, against the declarative
   semantics on random samples, are test_oracle's modes. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)

let entry label src : Suite.entry =
  { Suite.label; pattern = pat src; line = 1 }

let ipu_suite =
  [
    entry "config" "{set_imgAddr, set_glAddr, set_glSize} <<! start";
    entry "bounded" "start => read_img[1,5] < set_irq within 100";
  ]

let offer_all session trace = List.iter (Session.offer_force session) trace

let run_streaming ?lateness ?window suite trace =
  let session = Session.create ?lateness ?window suite in
  offer_all session trace;
  let report = Session.finalize session in
  (session, Report.summary report)

let passed_of summary = List.map (fun (l, v) -> (l, Backend.passed v)) summary

(* The batch reference runs the structural monitor, built independently
   of the flat engine sessions host by default. *)
let batch =
  Suite.check_trace ~backend:(Backend.per_pattern (fun p -> Backend.direct p))

(* ---- agreement with the batch checker --------------------------------- *)

let test_agrees_with_batch_pass () =
  let trace =
    [
      ev 0 "set_imgAddr"; ev 1 "set_glAddr"; ev 2 "set_glSize"; ev 5 "start";
      ev 10 "read_img"; ev 20 "set_irq";
    ]
  in
  let _, summary = run_streaming ipu_suite trace in
  Alcotest.(check (list (pair string bool)))
    "same verdicts" (batch ipu_suite trace) (passed_of summary)

let test_agrees_with_batch_fail () =
  let trace =
    [ ev 0 "set_imgAddr"; ev 1 "start"; ev 2 "read_img"; ev 3 "set_irq" ]
  in
  let _, summary = run_streaming ipu_suite trace in
  Alcotest.(check (list (pair string bool)))
    "same verdicts" (batch ipu_suite trace) (passed_of summary)

let test_deadline_fires_between_events () =
  (* The deadline miss must be reported when simulated time passes it —
     during the stream, not at finalize. *)
  let suite = [ entry "p" "go => done within 10" ] in
  let session = Session.create suite in
  let live = ref None in
  Session.on_violation session (fun ~name:_ v -> live := Some v.Diag.time);
  Session.offer_force session (ev 0 "go");
  Alcotest.(check (option int)) "not yet" None !live;
  Session.offer_force session (ev 50 "other_component");
  Alcotest.(check bool) "reported mid-stream" true (!live <> None);
  ignore (Session.finalize session)

let test_violation_reported_once () =
  let suite = [ entry "p" "a <<! go" ] in
  let session = Session.create suite in
  let hits = ref 0 in
  Session.on_violation session (fun ~name:_ _ -> incr hits);
  offer_all session [ ev 0 "go"; ev 1 "go"; ev 2 "go" ];
  ignore (Session.finalize session);
  Alcotest.(check int) "one report" 1 !hits

(* ---- disorder --------------------------------------------------------- *)

let test_absorbs_disorder () =
  (* b arrives before a in wall-clock order, timestamps disagree: with
     enough lateness the session sees the chronological trace. *)
  let shuffled =
    [ ev 5 "set_glAddr"; ev 0 "set_imgAddr"; ev 3 "set_glSize"; ev 10 "start";
      ev 12 "read_img"; ev 30 "set_irq" ]
  in
  let chronological = List.sort (fun (a : Trace.event) b -> compare a.time b.Trace.time) shuffled in
  let session = Session.create ~lateness:10 ipu_suite in
  offer_all session shuffled;
  let report = Session.finalize session in
  let stats = Session.stats session in
  Alcotest.(check int) "nothing dropped" 0 stats.dropped_late;
  Alcotest.(check bool) "disorder absorbed" true (stats.reordered > 0);
  Alcotest.(check (list (pair string bool)))
    "verdicts = batch on the sorted trace"
    (batch ipu_suite chronological)
    (passed_of (Report.summary report))

let test_drops_late_events () =
  let session = Session.create ~lateness:0 ipu_suite in
  Session.offer_force session (ev 100 "start");
  Session.offer_force session (ev 50 "set_imgAddr");
  let stats = Session.stats session in
  Alcotest.(check int) "late event dropped" 1 stats.dropped_late;
  Alcotest.(check int) "only the first delivered" 1 stats.delivered;
  ignore (Session.finalize session)

let test_backpressure () =
  (* lateness so large nothing ever ripens: the window fills, offer
     blocks, force_drain relieves. *)
  let session = Session.create ~lateness:1_000_000 ~window:2 ipu_suite in
  let offer t = Session.offer session (ev t "set_imgAddr") in
  (match offer 1 with `Accepted -> () | `Blocked -> Alcotest.fail "1 blocked");
  (match offer 2 with `Accepted -> () | `Blocked -> Alcotest.fail "2 blocked");
  (match offer 3 with
  | `Blocked -> ()
  | `Accepted -> Alcotest.fail "expected backpressure");
  Alcotest.(check bool) "force_drain" true (Session.force_drain session);
  (match offer 3 with `Accepted -> () | `Blocked -> Alcotest.fail "still blocked");
  let stats = Session.stats session in
  Alcotest.(check int) "forced counted" 1 stats.forced;
  ignore (Session.finalize session)

(* ---- properties ------------------------------------------------------- *)

(* Generated traces are chronological except for the Delay_conclusion
   mutation; a session is a consumer of chronological streams, so
   stable-sort first (ties keep their order — monitors are sensitive to
   the order of simultaneous events). *)
let chronological trace =
  List.stable_sort
    (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
    trace

(* Any generated pattern + chronological trace: streaming one event at
   a time through the session decides exactly what the batch backend
   decides. *)
let prop_streaming_equals_batch =
  qtest ~count:300 "session = Suite.check_trace" gen_pattern_and_trace
    print_pattern_and_trace (fun (p, trace) ->
      let trace = chronological trace in
      let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
      let session = Session.create suite in
      offer_all session trace;
      let report = Session.finalize session in
      let streaming = passed_of (Report.summary report) in
      streaming = Suite.check_trace suite trace)

(* Jitter a chronological trace within K, stream with lateness K: same
   verdict as the batch run on the clean trace (dropped events would
   break the equivalence, so the property also asserts none dropped). *)
let gen_jittered_case =
  QCheck2.Gen.(
    let* p, trace = gen_pattern_and_trace in
    let* lateness = int_range 1 20 in
    let* seed = int_bound 10_000 in
    return (p, trace, lateness, seed))

(* Bounded shuffle: swap adjacent events while timestamps stay within
   the lateness budget of the maximum seen so far. *)
let jitter ~lateness ~seed trace =
  let arr = Array.of_list trace in
  let rng = Random.State.make [| seed |] in
  let n = Array.length arr in
  for _ = 1 to n * 2 do
    if n > 1 then begin
      let i = Random.State.int rng (n - 1) in
      let a = arr.(i) and b = arr.(i + 1) in
      (* swapping delays [a] by one arrival slot; admissible when its
         timestamp stays within lateness of what now precedes it.
         Never swap ties: the reorder stage is stable, so tie inversion
         would change what the monitors see. *)
      if b.Trace.time <> a.Trace.time && b.Trace.time - a.Trace.time <= lateness
      then begin
        arr.(i) <- b;
        arr.(i + 1) <- a
      end
    end
  done;
  Array.to_list arr

let prop_disorder_absorbed =
  qtest ~count:200 "lateness-K session absorbs K-bounded jitter"
    gen_jittered_case
    (fun (p, trace, lateness, seed) ->
      Printf.sprintf "%s (lateness %d, seed %d)"
        (print_pattern_and_trace (p, trace))
        lateness seed)
    (fun (p, trace, lateness, seed) ->
      let trace = chronological trace in
      let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
      let shuffled = jitter ~lateness ~seed trace in
      let session = Session.create ~lateness suite in
      offer_all session shuffled;
      let report = Session.finalize session in
      let stats = Session.stats session in
      stats.dropped_late = 0
      && passed_of (Report.summary report) = Suite.check_trace suite trace)

(* ---- allocation on the wire path -------------------------------------- *)

(* The buffered LSQB path serve takes, with the provenance recorder it
   attaches: once every name is resolved, admitting an in-order event
   allocates nothing (the tap hands subscribers the time, not an event
   record).  16 disjoint {a_i, b_i} <<! go_i checkers fed round-robin
   satisfying rounds, one tick per round. *)
let test_wire_allocation () =
  let n = 16 and rounds = 2_000 in
  let suite =
    List.init n (fun i ->
        entry (Printf.sprintf "p%d" i) (Printf.sprintf "{a%d, b%d} <<! go%d" i i i))
  in
  let trace =
    List.concat
      (List.init rounds (fun r ->
           let i = r mod n in
           List.map
             (fun x -> ev r (Printf.sprintf "%s%d" x i))
             [ "a"; "b"; "go" ]))
  in
  let bytes = Codec.encode_exn trace in
  let session = Session.create suite in
  let prov = Provenance.create (Hub.tap (Session.hub session)) suite in
  let dec = Codec.Decoder.create () in
  let emit = Session.wire session (Codec.Decoder.name dec) in
  let feed off len =
    Result.iter_error failwith (Codec.Decoder.feed_ids dec ~off ~len bytes ~emit)
  in
  (* the first rounds define every name and resolve every stream id *)
  let warm = String.length bytes / 4 in
  feed 0 warm;
  let warmed = Session.position session in
  let before = Gc.minor_words () in
  feed warm (String.length bytes - warm);
  let words = Gc.minor_words () -. before in
  Result.iter_error failwith (Codec.Decoder.finish dec);
  let per_event =
    words /. float_of_int (Session.position session - warmed)
  in
  Printf.printf "%.3f minor words per event\n" per_event;
  if per_event > 0.1 then
    Alcotest.failf "%.3f minor words per event (at most 0.1)" per_event;
  Alcotest.(check bool) "all passed" true (Session.all_passed session);
  Alcotest.(check int) "provenance saw every event" (3 * rounds)
    (List.fold_left (fun acc (_, k) -> acc + k) 0 (Provenance.seen prov))

let () =
  Alcotest.run "session"
    [
      ( "agreement",
        [
          Alcotest.test_case "passing trace" `Quick test_agrees_with_batch_pass;
          Alcotest.test_case "failing trace" `Quick test_agrees_with_batch_fail;
          Alcotest.test_case "deadline mid-stream" `Quick
            test_deadline_fires_between_events;
          Alcotest.test_case "violation once" `Quick
            test_violation_reported_once;
        ] );
      ( "disorder",
        [
          Alcotest.test_case "absorbs" `Quick test_absorbs_disorder;
          Alcotest.test_case "drops late" `Quick test_drops_late_events;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "wire path allocates nothing per event" `Quick
            test_wire_allocation;
        ] );
      ( "properties",
        [ prop_streaming_equals_batch; prop_disorder_absorbed ] );
    ]
