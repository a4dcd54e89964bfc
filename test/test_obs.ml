(* The telemetry layer: registry semantics (dedup, noop, collected
   sources), exposition formats and the version pin against the
   CHANGELOG.  That a live registry never changes a verdict, and that
   its counters read exact values, is checked by test_oracle's
   "batch+metrics", "hub+obs" and "session+obs" modes. *)

open Loseq_core
module Obs = Loseq_obs.Metrics
module Expo = Loseq_obs.Expo

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- registry --------------------------------------------------------- *)

let test_counter_dedup () =
  let m = Obs.create () in
  let c1 = Obs.counter m ~name:"x_total" ~help:"h" ~labels:[ ("k", "v") ] () in
  let c2 = Obs.counter m ~name:"x_total" ~help:"h" ~labels:[ ("k", "v") ] () in
  Obs.incr c1;
  Obs.add c2 2;
  Alcotest.(check (option int))
    "same (name,labels) is one cell" (Some 3)
    (Obs.read_counter m ~name:"x_total" ~labels:[ ("k", "v") ] ());
  let c3 = Obs.counter m ~name:"x_total" ~help:"h" () in
  Obs.incr c3;
  Alcotest.(check (option int))
    "different labels are a different cell" (Some 1)
    (Obs.read_counter m ~name:"x_total" ());
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics.gauge: x_total is not a gauge") (fun () ->
      ignore (Obs.gauge m ~name:"x_total" ~help:"h" ~labels:[ ("k", "v") ] ()))

let test_gauge_and_histogram () =
  let m = Obs.create () in
  let g = Obs.gauge m ~name:"depth" ~help:"h" () in
  Obs.set g 7;
  Obs.set g 3;
  Alcotest.(check (option int)) "gauge holds last set" (Some 3)
    (Obs.read_gauge m ~name:"depth" ());
  let h = Obs.histogram m ~name:"lat" ~help:"h" ~buckets:[| 10; 100 |] () in
  List.iter (Obs.observe h) [ 5; 10; 11; 1_000 ];
  (match
     List.find_opt (fun s -> s.Obs.sample_name = "lat") (Obs.samples m)
   with
  | Some { Obs.value = Obs.Histogram_v { sum; count; buckets }; _ } ->
      Alcotest.(check int) "sum" 1026 sum;
      Alcotest.(check int) "count" 4 count;
      Alcotest.(check (array (pair int int)))
        "cumulative buckets"
        [| (10, 2); (100, 3) |]
        buckets
  | _ -> Alcotest.fail "histogram sample missing");
  Alcotest.check_raises "unsorted bounds rejected"
    (Invalid_argument
       "Metrics.histogram: bucket bounds must be non-empty and strictly \
        increasing") (fun () ->
      ignore (Obs.histogram m ~name:"bad" ~help:"h" ~buckets:[| 5; 5 |] ()))

let test_noop () =
  Alcotest.(check bool) "noop is dead" false (Obs.is_live Obs.noop);
  Alcotest.(check bool) "created is live" true (Obs.is_live (Obs.create ()));
  let c = Obs.counter Obs.noop ~name:"n_total" ~help:"h" () in
  Obs.incr c;
  Alcotest.(check int) "noop registers nothing" 0
    (List.length (Obs.samples Obs.noop));
  Alcotest.(check (option int))
    "noop reads nothing" None
    (Obs.read_counter Obs.noop ~name:"n_total" ())

let test_collect () =
  let m = Obs.create () in
  let c = Obs.counter m ~name:"mirror_total" ~help:"h" () in
  let source = ref 0 in
  Obs.on_collect m (fun () -> Obs.set_counter c !source);
  source := 42;
  Alcotest.(check (option int))
    "read_counter runs the hooks" (Some 42)
    (Obs.read_counter m ~name:"mirror_total" ());
  source := 43;
  Alcotest.(check bool) "samples run the hooks" true
    (List.exists
       (fun s -> s.Obs.value = Obs.Counter_v 43)
       (Obs.samples m));
  (* delta-style hooks compose with direct writers of the same cell *)
  let d = Obs.counter m ~name:"delta_total" ~help:"h" () in
  let seen = ref 0 and last = ref 0 in
  Obs.on_collect m (fun () ->
      Obs.add d (!seen - !last);
      last := !seen);
  Obs.incr d;
  seen := 5;
  Alcotest.(check (option int))
    "delta hook adds on top of direct bumps" (Some 6)
    (Obs.read_counter m ~name:"delta_total" ())

(* ---- exposition ------------------------------------------------------- *)

let rendered () =
  let m = Obs.create () in
  let c =
    Obs.counter m ~name:"ev_total" ~help:"events seen"
      ~labels:[ ("name", "go") ]
      ()
  in
  Obs.add c 430;
  let g = Obs.gauge m ~name:"occ" ~help:"occupancy" () in
  Obs.set g 2;
  let h = Obs.histogram m ~name:"lat_ns" ~help:"latency" ~buckets:[| 100 |] () in
  Obs.observe h 50;
  Obs.observe h 500;
  m

let test_prometheus () =
  let text = Expo.prometheus (rendered ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# HELP ev_total events seen";
      "# TYPE ev_total counter";
      "ev_total{name=\"go\"} 430";
      "# TYPE occ gauge";
      "occ 2";
      "# TYPE lat_ns histogram";
      "lat_ns_bucket{le=\"100\"} 1";
      "lat_ns_bucket{le=\"+Inf\"} 2";
      "lat_ns_sum 550";
      "lat_ns_count 2";
    ]

let test_json () =
  let json =
    match Json.of_string (Expo.json (rendered ())) with
    | Ok j -> j
    | Error e -> Alcotest.failf "exposed JSON does not parse: %s" e
  in
  match Option.bind (Json.member "metrics" json) Json.to_list_opt with
  | None -> Alcotest.fail "metrics array missing"
  | Some ms ->
      Alcotest.(check int) "three instruments" 3 (List.length ms);
      let names =
        List.filter_map
          (fun j -> Option.bind (Json.member "name" j) Json.to_string_opt)
          ms
      in
      Alcotest.(check (list string))
        "names in registration order"
        [ "ev_total"; "occ"; "lat_ns" ]
        names

(* ---- version pin ------------------------------------------------------ *)

let changelog =
  let candidates = [ "CHANGELOG.md"; "../CHANGELOG.md"; "../../CHANGELOG.md" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let test_version_pin () =
  let ic = open_in changelog in
  let rec first_heading () =
    match input_line ic with
    | line when String.length line > 3 && String.sub line 0 3 = "## " ->
        String.trim (String.sub line 3 (String.length line - 3))
    | _ -> first_heading ()
    | exception End_of_file -> ""
  in
  let top = first_heading () in
  close_in ic;
  Alcotest.(check string)
    "Version.current matches the top CHANGELOG entry" top Version.current

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter dedup" `Quick test_counter_dedup;
          Alcotest.test_case "gauge and histogram" `Quick
            test_gauge_and_histogram;
          Alcotest.test_case "noop sink" `Quick test_noop;
          Alcotest.test_case "collected sources" `Quick test_collect;
        ] );
      ( "expo",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus;
          Alcotest.test_case "json snapshot" `Quick test_json;
        ] );
      ( "version",
        [ Alcotest.test_case "changelog pin" `Quick test_version_pin ] );
    ]
