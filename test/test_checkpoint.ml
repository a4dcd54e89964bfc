(* Checkpoint/resume: killing a streaming session at ANY prefix and
   resuming from the checkpoint must be observationally identical to
   the uninterrupted run — same rendered verdicts, same violation
   de-duplication, same pending reorder buffer.  Pinned suites cut at
   every prefix here; random samples cut at random points are
   test_oracle's "checkpoint" mode. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)

let entry label src : Suite.entry =
  { Suite.label; pattern = pat src; line = 1 }

let demo_suite =
  [
    entry "config" "{set_imgAddr, set_glAddr, set_glSize} <<! start";
    entry "bounded" "start => read_img[1,3] < set_irq within 50";
    entry "order" "take_lock < release_lock <<! bus_idle";
  ]

let offer_all session trace = List.iter (Session.offer_force session) trace

let summary_of session trace =
  offer_all session trace;
  List.map unlocated (Report.summary_strings (Session.finalize session))

(* The uninterrupted reference: the structural monitor, one per
   checker, built independently of the flat engine that checkpoints
   read and write. *)
let direct = Backend.per_pattern (fun p -> Backend.direct p)

(* Run to [cut] under [src] hosting, checkpoint through the JSON
   codec, resume a fresh [dst]-hosted session from it, feed the rest. *)
let resumed_summary ?lateness ?src ?dst suite trace cut =
  let first = Session.create ?lateness ?backend:src suite in
  let before, after =
    List.filteri (fun i _ -> i < cut) trace,
    List.filteri (fun i _ -> i >= cut) trace
  in
  offer_all first before;
  let json = Checkpoint.capture first in
  (* through the wire format: render + reparse *)
  let json =
    match Json.of_string (Json.to_string json) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "checkpoint JSON invalid: %s" msg
  in
  let second = Session.create ?lateness ?backend:dst suite in
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore at cut %d: %s" cut msg);
  summary_of second after

let check_every_prefix ?lateness ?src ?dst suite trace =
  let baseline =
    summary_of (Session.create ?lateness ~backend:direct suite) trace
  in
  for cut = 0 to List.length trace do
    let resumed = resumed_summary ?lateness ?src ?dst suite trace cut in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "cut at %d" cut)
      baseline resumed
  done

let passing_trace =
  [
    ev 0 "set_imgAddr"; ev 2 "set_glAddr"; ev 3 "set_glSize"; ev 10 "start";
    ev 15 "read_img"; ev 40 "set_irq"; ev 45 "take_lock"; ev 50 "release_lock";
    ev 60 "bus_idle";
  ]

let failing_trace =
  [
    ev 0 "set_imgAddr"; ev 2 "set_glAddr"; ev 3 "start" (* missing size *);
    ev 15 "read_img"; ev 100 "set_irq" (* past the deadline *);
    ev 110 "release_lock"; ev 120 "bus_idle" (* lock order broken *);
  ]

let test_every_prefix_passing () =
  check_every_prefix demo_suite passing_trace;
  (* an empty suite hosts no engine, and still checkpoints *)
  check_every_prefix [] passing_trace
let test_every_prefix_failing () = check_every_prefix demo_suite failing_trace

let flat = Backend.flat_views

(* Checkpoints cross hostings only through the one engine: every cut
   resumes flat-to-flat, and a hosting with one monitor per pattern
   (the structural monitor, or flat engines built one each)
   refuses both to write one and to resume one, with one message. *)
let test_cross_backend_resume () =
  List.iter
    (fun trace -> check_every_prefix ~src:flat ~dst:flat demo_suite trace)
    [ passing_trace; failing_trace ];
  let refusal =
    "checker \"config\": hosted one monitor per pattern, which cannot be \
     checkpointed (checkpointing needs the one suite engine)"
  in
  let json = Checkpoint.capture (Session.create demo_suite) in
  List.iter
    (fun (label, backend) ->
      (match Checkpoint.capture (Session.create ~backend demo_suite) with
      | _ -> Alcotest.failf "%s hosting wrote a checkpoint" label
      | exception Failure msg ->
          Alcotest.(check string) (label ^ " capture refused") refusal msg);
      match Checkpoint.restore (Session.create ~backend demo_suite) json with
      | Ok () -> Alcotest.failf "%s hosting resumed a checkpoint" label
      | Error msg ->
          Alcotest.(check string) (label ^ " resume refused") refusal msg)
    [
      ("direct", direct);
      ("per-pattern flat", Backend.per_pattern Backend.flat);
    ]

let test_cross_backend_resume_with_pending_reorder () =
  let disordered =
    [
      ev 2 "set_glAddr"; ev 0 "set_imgAddr"; ev 3 "set_glSize"; ev 10 "start";
      ev 15 "read_img"; ev 40 "set_irq"; ev 47 "take_lock"; ev 45 "other";
      ev 50 "release_lock"; ev 60 "bus_idle";
    ]
  in
  check_every_prefix ~lateness:5 ~src:flat ~dst:flat demo_suite disordered

(* Every checkpointable hosting (the default, which [--backend
   compiled] and [--backend flat] both name, or explicit flat views)
   writes version 2: blob + interning table. *)
let test_checkpoint_is_v2 ?backend () =
  let session = Session.create ?backend demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let json = Checkpoint.capture session in
  let int_field k =
    match Json.member k json with Some (Json.Int n) -> n | _ -> -1
  in
  Alcotest.(check int) "version" 2 (int_field "version");
  Alcotest.(check int) "blob_version" Flat.blob_version
    (int_field "blob_version");
  Alcotest.(check bool) "engine" true
    (Json.member "engine" json = Some (Json.String "flat"));
  (match Json.member "blob" json with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "no blob field");
  match Json.member "names" json with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no interning table"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* A tampered blob version must surface as a clear error, not a decode
   exception. *)
let test_blob_version_mismatch_refused () =
  let session = Session.create ~backend:flat demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let json = Checkpoint.capture session in
  let bump = function
    | ("blob_version", Json.Int v) -> ("blob_version", Json.Int (v + 1))
    | kv -> kv
  in
  let tampered =
    match json with
    | Json.Obj fields -> Json.Obj (List.map bump fields)
    | _ -> Alcotest.fail "checkpoint is not an object"
  in
  let fresh = Session.create ~backend:flat demo_suite in
  match Checkpoint.restore fresh tampered with
  | Ok () -> Alcotest.fail "restored a mismatched blob version"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the version: %s" msg)
        true (contains msg "version")

let test_every_prefix_with_pending_reorder () =
  (* lateness > 0 keeps events parked in the reorder buffer: a
     checkpoint in that state must carry them, not flush them. *)
  let disordered =
    [
      ev 2 "set_glAddr"; ev 0 "set_imgAddr"; ev 3 "set_glSize"; ev 10 "start";
      ev 15 "read_img"; ev 40 "set_irq"; ev 47 "take_lock"; ev 45 "other";
      ev 50 "release_lock"; ev 60 "bus_idle";
    ]
  in
  check_every_prefix ~lateness:5 demo_suite disordered

let test_violation_not_rereported () =
  let suite = [ entry "p" "a <<! go" ] in
  let trace = [ ev 0 "go"; ev 1 "go" ] in
  let first = Session.create suite in
  Session.offer_force first (List.hd trace);
  (* violated and reported before the checkpoint *)
  let json = Checkpoint.capture first in
  let second = Session.create suite in
  let hits = ref 0 in
  Session.on_violation second (fun ~name:_ _ -> incr hits);
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  offer_all second (List.tl trace);
  ignore (Session.finalize second);
  Alcotest.(check int) "already-reported violation stays reported" 0 !hits

let test_file_roundtrip () =
  let session = Session.create demo_suite in
  offer_all session (List.filteri (fun i _ -> i < 5) passing_trace);
  let path = Filename.temp_file "loseq" ".ckpt" in
  (match Checkpoint.save ~path session with
  | Ok bytes -> Alcotest.(check bool) "byte count positive" true (bytes > 0)
  | Error msg -> Alcotest.fail msg);
  let resumed = Checkpoint.resume ~path demo_suite in
  Sys.remove path;
  match resumed with
  | Error msg -> Alcotest.fail msg
  | Ok second ->
      Alcotest.(check int) "position preserved" (Session.position session)
        (Session.position second);
      offer_all second (List.filteri (fun i _ -> i >= 5) passing_trace);
      let baseline =
        summary_of (Session.create ~backend:direct demo_suite) passing_trace
      in
      Alcotest.(check (list (pair string string)))
        "verdicts equal" baseline
        (summary_of second [])

(* A restore moves [events_seen] to the checkpoint's historical total
   without executing any monitor step in this process;
   [loseq_backend_steps_total] counts this process's emissions, so it
   reflects only post-resume steps. *)
let test_resume_rebases_step_counters () =
  let module Obs = Loseq_obs.Metrics in
  let steps m =
    match
      Obs.read_counter m ~name:"loseq_backend_steps_total"
        ~labels:[ ("backend", "flat") ] ()
    with
    | Some n -> n
    | None -> Alcotest.fail "loseq_backend_steps_total not registered"
  in
  let cut = 5 in
  let full = Obs.create () in
  offer_all (Session.create ~metrics:full demo_suite) passing_trace;
  let prefix = Obs.create () in
  let first = Session.create ~metrics:prefix demo_suite in
  offer_all first (List.filteri (fun i _ -> i < cut) passing_trace);
  let json = Checkpoint.capture first in
  let live = Obs.create () in
  let second = Session.create ~metrics:live demo_suite in
  (match Checkpoint.restore second json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "no steps counted for pre-resume history" 0
    (steps live);
  offer_all second (List.filteri (fun i _ -> i >= cut) passing_trace);
  ignore (Session.finalize second);
  Alcotest.(check int) "post-resume steps = full run minus prefix"
    (steps full - steps prefix) (steps live)

(* A checkpoint path that cannot be read (here: a directory) is an
   [Error] naming the path, from [load] and [resume] alike. *)
let test_unreadable_path () =
  let dir = Filename.temp_dir "loseq_ckpt" "" in
  let named what = function
    | Ok _ -> Alcotest.failf "%s accepted a directory" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s error names the path: %s" what msg)
          true (contains msg dir)
  in
  named "load" (Checkpoint.load ~path:dir);
  named "resume" (Checkpoint.resume ~path:dir demo_suite);
  Sys.rmdir dir

(* Session parameters the session refuses (a zero reorder window) are
   an [Error] naming the file, not an escaping exception. *)
let test_refused_window () =
  let session = Session.create demo_suite in
  let window = function
    | ("window", _) -> ("window", Json.Int 0)
    | kv -> kv
  in
  let json =
    match Checkpoint.capture session with
    | Json.Obj fields -> Json.Obj (List.map window fields)
    | _ -> Alcotest.fail "checkpoint is not an object"
  in
  let path = Filename.temp_file "loseq" ".ckpt" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json));
  let resumed = Checkpoint.resume ~path demo_suite in
  Sys.remove path;
  match resumed with
  | Ok _ -> Alcotest.fail "resumed with a zero window"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the file: %s" msg)
        true (contains msg path)

let test_restore_refuses_mismatches () =
  let session = Session.create demo_suite in
  offer_all session passing_trace;
  let json = Checkpoint.capture session in
  (* different suite *)
  let other = Session.create [ entry "p" "a << b" ] in
  (match Checkpoint.restore other json with
  | Ok () -> Alcotest.fail "restored into a different suite"
  | Error _ -> ());
  (* non-fresh session *)
  let used = Session.create demo_suite in
  Session.offer_force used (ev 0 "set_imgAddr");
  (match Checkpoint.restore used json with
  | Ok () -> Alcotest.fail "restored into a used session"
  | Error _ -> ());
  (* malformed document *)
  let fresh = Session.create demo_suite in
  match Checkpoint.restore fresh (Json.Obj [ ("format", Json.String "x") ]) with
  | Ok () -> Alcotest.fail "restored from garbage"
  | Error _ -> ()

let () =
  Alcotest.run "checkpoint"
    [
      ( "equivalence",
        [
          Alcotest.test_case "every prefix, passing" `Quick
            test_every_prefix_passing;
          Alcotest.test_case "every prefix, failing" `Quick
            test_every_prefix_failing;
          Alcotest.test_case "every prefix, pending reorder" `Quick
            test_every_prefix_with_pending_reorder;
          Alcotest.test_case "violation de-dup" `Quick
            test_violation_not_rereported;
          Alcotest.test_case "cross-backend resume" `Quick
            test_cross_backend_resume;
          Alcotest.test_case "cross-backend resume, pending reorder" `Quick
            test_cross_backend_resume_with_pending_reorder;
        ] );
      ( "blob format",
        [
          Alcotest.test_case "flat hosting writes v2" `Quick
            (test_checkpoint_is_v2 ~backend:flat);
          Alcotest.test_case "compiled hosting writes v2" `Quick
            test_checkpoint_is_v2;
          Alcotest.test_case "blob version mismatch refused" `Quick
            test_blob_version_mismatch_refused;
        ] );
      ( "files",
        [
          Alcotest.test_case "save/resume" `Quick test_file_roundtrip;
          Alcotest.test_case "step counters rebased" `Quick
            test_resume_rebases_step_counters;
          Alcotest.test_case "mismatches refused" `Quick
            test_restore_refuses_mismatches;
          Alcotest.test_case "unreadable path refused" `Quick
            test_unreadable_path;
          Alcotest.test_case "refused window" `Quick test_refused_window;
        ] );
    ]
