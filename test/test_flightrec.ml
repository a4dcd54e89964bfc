(* The flight-recorder stack: ring semantics (wrap-around with exact
   drop accounting), the NDJSON export round-trip through the core
   Json parser (qcheck), the Chrome export of the committed ipu twin
   trace staying valid JSON with per-thread monotone timestamps, the
   profile quantile estimator, the Prometheus label-value escaping,
   and verdict-provenance capture + 1-minimization + replay. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil
module Tr = Loseq_obs.Trace
module Profile = Loseq_obs.Profile
module Obs = Loseq_obs.Metrics
module Expo = Loseq_obs.Expo

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let example dir nm =
  let candidates =
    [
      Filename.concat ("examples/" ^ dir) nm;
      Filename.concat ("../examples/" ^ dir) nm;
      Filename.concat ("../../examples/" ^ dir) nm;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let load_suite path =
  match Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Suite.pp_error e

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

(* ---- ring semantics ---------------------------------------------------- *)

let test_ring_wraparound () =
  let tr = Tr.create ~capacity:8 () in
  let c = Tr.intern tr ~track:"t" "tick" in
  for i = 0 to 19 do
    Tr.emit_at tr ~ts_ns:(1000 + i) c Tr.Instant i
  done;
  Alcotest.(check int) "capacity rounded" 8 (Tr.capacity tr);
  Alcotest.(check int) "length is the window" 8 (Tr.length tr);
  Alcotest.(check int) "total counts every emission" 20 (Tr.total tr);
  Alcotest.(check int) "dropped = total - length" 12 (Tr.dropped tr);
  Alcotest.(check (list int))
    "the most recent window survives, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (r : Tr.record) -> r.arg) (Tr.records tr))

let test_noop_records_nothing () =
  Alcotest.(check bool) "noop is not live" false (Tr.is_live Tr.noop);
  Alcotest.(check bool) "a ring is live" true (Tr.is_live (Tr.create ()));
  let c = Tr.intern Tr.noop ~track:"t" "tick" in
  Tr.emit Tr.noop c Tr.Instant 1;
  Alcotest.(check int) "noop retains nothing" 0 (Tr.length Tr.noop);
  Alcotest.(check int) "noop counts nothing" 0 (Tr.total Tr.noop)

(* ---- NDJSON round-trip (qcheck) ---------------------------------------- *)

let kind_of_string = function
  | "span_begin" -> Tr.Span_begin
  | "span_end" -> Tr.Span_end
  | "instant" -> Tr.Instant
  | "count" -> Tr.Count
  | s -> Alcotest.failf "unknown kind %S" s

(* Category pool with every escaping hazard the exporter handles. *)
let pool =
  [|
    ("hub", "dispatch");
    ("ingest", "a\"quote");
    ("ooo", "back\\slash");
    ("hub", "new\nline");
    ("ingest", "tab\there");
  |]

let parse_ndjson s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Json.of_string line with
         | Error msg -> Alcotest.failf "NDJSON line %S: %s" line msg
         | Ok json ->
             let str k =
               match Option.bind (Json.member k json) Json.to_string_opt with
               | Some v -> v
               | None -> Alcotest.failf "no %S in %s" k line
             in
             let int k =
               match Json.member k json with
               | Some (Json.Int i) -> i
               | _ -> Alcotest.failf "no int %S in %s" k line
             in
             {
               Tr.ts_ns = int "ts_ns";
               track = str "track";
               name = str "name";
               kind = kind_of_string (str "kind");
               arg = int "arg";
             })

let record_gen =
  QCheck2.Gen.(
    quad (int_bound (Array.length pool - 1))
      (oneofl [ Tr.Span_begin; Tr.Span_end; Tr.Instant; Tr.Count ])
      (int_bound 1_000_000) (int_bound 500))

let test_ndjson_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"ndjson export parses back to the ring"
    QCheck2.Gen.(list_size (int_bound 60) record_gen)
    (fun specs ->
      let tr = Tr.create ~capacity:64 () in
      let cats =
        Array.map (fun (track, nm) -> Tr.intern tr ~track nm) pool
      in
      let ts = ref 0 in
      List.iter
        (fun (ci, kind, arg, dt) ->
          ts := !ts + dt;
          Tr.emit_at tr ~ts_ns:!ts cats.(ci) kind arg)
        specs;
      parse_ndjson (Tr.to_ndjson tr) = Tr.records tr)

(* ---- Chrome export of the ipu twin trace ------------------------------- *)

(* The committed out-of-order twin, hosted with the recorder live, must
   export a Chrome trace that (a) is valid JSON and (b) keeps [ts]
   non-decreasing within every thread lane — the invariant trace
   viewers assume and the eager span-begin discipline exists for. *)
let test_chrome_ipu_twin () =
  let suite = load_suite (example "specs" "ipu.suite") in
  let events = load_csv (example "traces" "ipu_ooo.csv") in
  let tr = Tr.create () in
  let session = Session.create ~trace:tr ~lateness:75_000 suite in
  List.iter (Session.offer_force session) events;
  ignore (Session.finalize session);
  Alcotest.(check bool) "the run recorded something" true (Tr.total tr > 0);
  match Json.of_string (Tr.to_chrome tr) with
  | Error msg -> Alcotest.failf "chrome export is not JSON: %s" msg
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          let last = Hashtbl.create 4 in
          let checked = ref 0 in
          List.iter
            (fun ev ->
              match
                (Json.member "ph" ev, Json.member "tid" ev, Json.member "ts" ev)
              with
              | Some (Json.String "M"), _, _ -> ()
              | _, Some (Json.Int tid), Some ts ->
                  let ts =
                    match ts with
                    | Json.Float f -> f
                    | Json.Int i -> float_of_int i
                    | _ -> Alcotest.fail "ts is not a number"
                  in
                  let prev =
                    Option.value ~default:neg_infinity
                      (Hashtbl.find_opt last tid)
                  in
                  if ts < prev then
                    Alcotest.failf "ts regressed on tid %d: %f after %f" tid
                      ts prev;
                  Hashtbl.replace last tid ts;
                  incr checked
              | _ -> Alcotest.fail "record without tid/ts")
            evs;
          Alcotest.(check bool) "saw timed records" true (!checked > 0);
          match Json.member "otherData" json with
          | Some od -> (
              match Json.member "dropped" od with
              | Some (Json.Int d) ->
                  Alcotest.(check int) "drop count rides along" (Tr.dropped tr)
                    d
              | _ -> Alcotest.fail "no dropped count")
          | None -> Alcotest.fail "no otherData")

(* ---- quantiles --------------------------------------------------------- *)

let test_quantile () =
  let buckets = [| (100, 5); (200, 10) |] in
  Alcotest.(check (float 1e-9))
    "p50 at the first bucket edge" 100.
    (Profile.quantile ~count:10 ~buckets 0.5);
  Alcotest.(check (float 1e-9))
    "p90 interpolates within the second bucket" 180.
    (Profile.quantile ~count:10 ~buckets 0.9);
  Alcotest.(check (float 1e-9))
    "p99 interpolates within the second bucket" 198.
    (Profile.quantile ~count:10 ~buckets 0.99);
  Alcotest.(check (float 1e-9))
    "mass beyond the last finite bound clamps" 100.
    (Profile.quantile ~count:10 ~buckets:[| (100, 5) |] 0.9);
  Alcotest.(check (float 1e-9))
    "empty histogram" 0.
    (Profile.quantile ~count:0 ~buckets 0.5)

(* ---- Prometheus escaping ----------------------------------------------- *)

let test_prometheus_label_escaping () =
  let m = Obs.create () in
  let c =
    Obs.counter m ~name:"x_total" ~help:"say \"hi\" to\\them"
      ~labels:[ ("path", "a\"b\nc\\d") ]
      ()
  in
  Obs.incr c;
  let text = Expo.prometheus m in
  (* label values escape backslash, double-quote and newline *)
  Alcotest.(check bool)
    "label value escaped" true
    (contains text "path=\"a\\\"b\\nc\\\\d\"");
  (* HELP escapes only backslash and newline — a quote passes through *)
  Alcotest.(check bool)
    "HELP keeps the quote raw" true
    (contains text "# HELP x_total say \"hi\" to\\\\them");
  (* the JSON exposition of the same registry must stay parseable *)
  match Json.of_string (Expo.json m) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "stats.json broken by escaping: %s" msg

(* ---- verdict provenance ------------------------------------------------ *)

let entry label src : Suite.entry = { Suite.label; pattern = pat src; line = 1 }
let ev t nm = Trace.event ~time:t (name nm)

(* The independent reference: the structural monitor. *)
let direct = Backend.per_pattern (fun p -> Backend.direct p)

let test_provenance_minimal_chain () =
  let suite = [ entry "p" "{a, b} <<! go" ] in
  let session = Session.create suite in
  let prov = Provenance.create (Hub.tap (Session.hub session)) suite in
  Session.on_violation session (fun ~name v ->
      Provenance.note_violation prov ~label:name v);
  (* noise outside the alphabet, a completed round, then the bare
     trigger: only the last [go] is causally necessary *)
  List.iter
    (Session.offer_force session)
    [ ev 1 "x"; ev 2 "a"; ev 3 "b"; ev 4 "go"; ev 5 "a"; ev 6 "go" ];
  let report = Session.finalize session in
  Alcotest.(check bool) "the run fails" false (Report.all_passed report);
  let captured = Provenance.captured prov "p" in
  Alcotest.(check bool)
    "capture holds only alphabet events" true
    (List.for_all
       (fun (l : Provenance.link) -> Name.to_string l.name <> "x")
       captured);
  Alcotest.(check bool)
    "capture includes the offending event" true
    (List.exists (fun (l : Provenance.link) -> l.time = 6) captured);
  let ft = Session.now session in
  let chain =
    Provenance.minimize ~final_time:ft ~label:"p" (pat "{a, b} <<! go")
      captured
  in
  Alcotest.(check (list (pair int string)))
    "1-minimal chain is the bare trigger"
    [ (6, "go") ]
    (List.map
       (fun (l : Provenance.link) -> (l.time, Name.to_string l.name))
       chain);
  Alcotest.(check bool)
    "chain replays to Fail on the default engine" false
    (Provenance.replay ~final_time:ft ~label:"p" (pat "{a, b} <<! go") chain);
  Alcotest.(check bool)
    "chain replays to Fail on the structural monitor" false
    (Provenance.replay ~backend:direct ~final_time:ft ~label:"p"
       (pat "{a, b} <<! go") chain);
  (* the JSON rendering parses back to the same chain *)
  let json = Provenance.chain_json ?violation:(Provenance.violation_of prov "p") chain in
  match Provenance.chain_of_json json with
  | Error msg -> Alcotest.failf "chain_of_json: %s" msg
  | Ok back ->
      Alcotest.(check (list (pair int string)))
        "chain_json round-trips"
        (List.map
           (fun (l : Provenance.link) -> (l.time, Name.to_string l.name))
           chain)
        (List.map
           (fun (l : Provenance.link) -> (l.time, Name.to_string l.name))
           back)

(* The chain must explain the recorded violation, not another one:
   here the reported failure is the second run of [a], and [c] alone
   would fail too, but only because the premise never occurred. *)
let test_provenance_same_violation () =
  let src = "{a | b[2,2]} < c => d within 0" in
  let suite = [ entry "p" src ] in
  let session = Session.create suite in
  let prov = Provenance.create (Hub.tap (Session.hub session)) suite in
  Session.on_violation session (fun ~name v ->
      Provenance.note_violation prov ~label:name v);
  List.iter
    (Session.offer_force session)
    (List.init 7 (fun _ -> ev 0 "a") @ [ ev 0 "b"; ev 0 "a"; ev 0 "c" ]);
  ignore (Session.finalize session);
  let violation = Provenance.violation_of prov "p" in
  Alcotest.(check bool) "a violation was recorded" true (violation <> None);
  let chain =
    Provenance.minimize ?violation ~final_time:(Session.now session)
      ~label:"p" (pat src) (Provenance.captured prov "p")
  in
  Alcotest.(check (list (pair int string)))
    "the chain reproduces the recorded violation"
    [ (0, "a"); (0, "a") ]
    (List.map
       (fun (l : Provenance.link) -> (l.time, Name.to_string l.name))
       chain)

let test_provenance_retraction () =
  let suite = [ entry "p" "{a, b} <<! go" ] in
  let prov = Provenance.create_detached suite in
  Provenance.record prov (Provenance.route prov (name "b")) ~time:2;
  Provenance.note_violation prov ~label:"p"
    {
      Diag.time = 2;
      index = -1;
      fragment = 0;
      name = Some (name "b");
      reason = Diag.After_name;
    };
  Alcotest.(check bool) "violation noted" true
    (Provenance.violation_of prov "p" <> None);
  Provenance.clear_violation prov ~label:"p";
  Alcotest.(check bool) "retraction clears it" true
    (Provenance.violation_of prov "p" = None);
  Alcotest.(check (list (pair string int)))
    "seen counts per-entry alphabet events"
    [ ("p", 1) ]
    (Provenance.seen prov)

(* Random failing (pattern, trace): the chain minimized on the default
   engine fails under a fresh replay on the structural monitor, built
   independently of that engine, and is 1-minimal there: dropping any
   one event makes it pass.  Passing cases hold vacuously. *)
let prop_minimized_chain =
  qtest ~count:1000 "minimized chain fails and is 1-minimal"
    gen_pattern_and_trace print_pattern_and_trace (fun (p, trace) ->
      let final_time = Trace.end_time trace in
      let replay chain =
        Provenance.replay ~backend:direct ~final_time ~label:"p" p chain
      in
      let chain =
        List.map
          (fun (e : Trace.event) -> { Provenance.time = e.time; name = e.name })
          trace
      in
      replay chain
      ||
      let minimized = Provenance.minimize ~final_time ~label:"p" p chain in
      (not (replay minimized))
      && List.for_all
           (fun i -> replay (List.filteri (fun j _ -> j <> i) minimized))
           (List.init (List.length minimized) Fun.id))

(* Random suites and long chronological streams (a generated trace
   repeated up to 12 times, foreign names spliced in): every captured
   chain is the last <= 64 events of its entry's alphabet at or before
   its freeze time, computed from the stream.  The tap-fed recorder and
   a detached one fed through [record] agree on it. *)
let gen_capture_case =
  QCheck2.Gen.(
    let* p, trace = gen_pattern_and_trace in
    let* reps = int_range 1 12 in
    let* seed = int_bound 10_000 in
    return (p, trace, reps, seed))

let prop_captured_chain =
  qtest ~count:300 "captured chain = last 64 alphabet events to the freeze"
    gen_capture_case
    (fun (p, trace, reps, seed) ->
      Printf.sprintf "%s (x%d, seed %d)"
        (print_pattern_and_trace (p, trace))
        reps seed)
    (fun (p, trace, reps, seed) ->
      let rng = Random.State.make [| seed |] in
      let span = Trace.end_time trace + 1 in
      let stream =
        List.concat
          (List.init reps (fun r ->
               List.concat_map
                 (fun (e : Trace.event) ->
                   let e = { e with Trace.time = e.time + (r * span) } in
                   if Random.State.int rng 4 = 0 then
                     [ { e with Trace.name = name "zz" }; e ]
                   else [ e ])
                 (List.stable_sort
                    (fun (a : Trace.event) b -> compare a.time b.time)
                    trace)))
      in
      let suite = [ entry "p" (Pattern.to_string p); entry "q" "{a, c} <<! e" ] in
      let session = Session.create suite in
      let tapped = Provenance.create (Hub.tap (Session.hub session)) suite in
      let detached = Provenance.create_detached suite in
      Session.on_violation session (fun ~name v ->
          Provenance.note_violation tapped ~label:name v;
          Provenance.note_violation detached ~label:name v);
      List.iter
        (fun (e : Trace.event) ->
          (* after the offer, as the tap subscription runs after the
             hub's: a deadline the offer fires freezes the ring first *)
          Session.offer_force session e;
          Provenance.record detached (Provenance.route detached e.name)
            ~time:e.time)
        stream;
      ignore (Session.finalize session);
      let links chain =
        List.map
          (fun (l : Provenance.link) -> (l.time, Name.to_string l.name))
          chain
      in
      List.for_all
        (fun (en : Suite.entry) ->
          let alpha = Pattern.alpha en.pattern in
          let cut =
            match Provenance.violation_of tapped en.label with
            | Some v -> v.time
            | None -> max_int
          in
          let heard =
            List.filter
              (fun (e : Trace.event) ->
                Name.Set.mem e.name alpha && e.time <= cut)
              stream
          in
          let n = List.length heard in
          let expected =
            List.filteri (fun i _ -> i >= n - 64) heard
            |> List.map (fun (e : Trace.event) ->
                   (e.time, Name.to_string e.name))
          in
          links (Provenance.captured tapped en.label) = expected
          && links (Provenance.captured detached en.label) = expected)
        suite)

(* ------------------------------------------------------------------------ *)

let () =
  Alcotest.run "flightrec"
    [
      ( "ring",
        [
          Alcotest.test_case "wrap-around drops oldest" `Quick
            test_ring_wraparound;
          Alcotest.test_case "noop records nothing" `Quick
            test_noop_records_nothing;
        ] );
      ( "exports",
        [
          QCheck_alcotest.to_alcotest test_ndjson_roundtrip;
          Alcotest.test_case "chrome export of the ipu twin" `Quick
            test_chrome_ipu_twin;
        ] );
      ( "profile",
        [ Alcotest.test_case "quantile estimator" `Quick test_quantile ] );
      ( "expo",
        [
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "minimal causal chain" `Quick
            test_provenance_minimal_chain;
          Alcotest.test_case "chain explains the recorded violation" `Quick
            test_provenance_same_violation;
          Alcotest.test_case "retraction + seen counts" `Quick
            test_provenance_retraction;
          prop_minimized_chain;
          prop_captured_chain;
        ] );
    ]
