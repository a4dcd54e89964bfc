(* Golden NDJSON for [Server.serve], run in-process: each case points
   stdin at a committed trace (dup2, restored afterwards), captures
   every record written to [out], and pins the lines and the exit code
   against test/golden/<case>.ndjson.  The goldens cover both hosting
   modes — buffered and speculative ([ooo]) — on the compiled and
   flat backends, the reorder gate, stats cadence, checkpoint records
   and the setup-error path.  A second group checks that artifact
   writes are atomic and that an unwritable artifact path ends the run
   with a typed [error] record.

   To regenerate after an intended wire change:
     LOSEQ_GOLDEN_UPDATE=$PWD/test/golden dune exec test/test_server.exe
   (from the repository root). *)

open Loseq_core
open Loseq_verif
open Loseq_ingest

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

let load_suite nm =
  match Suite.load (example "specs" nm) with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Suite.pp_error e

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines

(* Run [f] with stdin reading [path]; the original stdin is restored
   whatever [f] does. *)
let with_stdin path f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let saved = Unix.dup Unix.stdin in
  Unix.dup2 fd Unix.stdin;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stdin;
      Unix.close saved)
    f

(* [serve] over [trace] on stdin; returns (exit code, NDJSON lines). *)
let run_serve ~trace serve =
  let out_path = Filename.temp_file "loseq_serve" ".ndjson" in
  let oc = open_out_bin out_path in
  let code =
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    with_stdin trace (fun () -> serve ~out:oc)
  in
  let lines = read_lines out_path in
  Sys.remove out_path;
  (code, lines)

(* What [serve --backend compiled] and [--backend flat] name: the one
   suite engine, stepped engine-direct. *)
let compiled = Backend.flat_views
let flat = Backend.flat_views

(* The structural monitor, one per checker: independent of that engine. *)
let direct = Backend.per_pattern (fun p -> Backend.direct p)

(* racy_ok.csv with its first two events (req@100, ack@200) arriving
   swapped: a late req inside a lateness-200 window. *)
let racy_head_swapped () =
  let path = Filename.temp_file "racy_head_swapped" ".csv" in
  (match read_lines (example "traces" "racy_ok.csv") with
  | header :: a :: b :: rest -> write_lines path (header :: b :: a :: rest)
  | _ -> Alcotest.fail "racy_ok.csv too short");
  path

let golden_path file =
  if Sys.file_exists (Filename.concat "golden" file) then
    Filename.concat "golden" file
  else Filename.concat "test/golden" file

let check_golden ?(golden = "") ?(update = true) name ~exit:expected_exit
    (code, lines) =
  let golden = if golden = "" then name else golden in
  (match Sys.getenv_opt "LOSEQ_GOLDEN_UPDATE" with
  | Some dir when update ->
      write_lines (Filename.concat dir (golden ^ ".ndjson")) lines
  | Some _ | None -> ());
  let golden = read_lines (golden_path (golden ^ ".ndjson")) in
  Alcotest.(check (list string)) (name ^ " records") golden lines;
  Alcotest.(check int) (name ^ " exit code") expected_exit code

let has_line lines needle =
  List.exists
    (fun l ->
      let n = String.length needle and h = String.length l in
      let rec at i = i + n <= h && (String.sub l i n = needle || at (i + 1)) in
      at 0)
    lines

(* The LSQB encoding of a CSV trace, in a temporary file. *)
let lsqb_of csv =
  let path = Filename.temp_file "loseq_wire" ".lsqb" in
  (match Trace_io.load_csv csv with
  | Error msg -> Alcotest.failf "%s: %s" csv msg
  | Ok trace -> (
      match Codec.save ~path trace with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" csv msg));
  path

(* [backend] [None] names no backend: [Server.serve]'s own default.
   [golden] (default: the case name) is the file the output must
   match.  [wire] serves the trace's LSQB encoding instead of the CSV,
   against the same golden file (never rewritten from the wire run). *)
let case name ?golden ?(wire = false) ~exit ?(check = fun _ -> ()) ~suite
    ~trace ?(backend = Some compiled) ?stats_interval ?lateness ?ooo
    ?checkpoint ?checkpoint_every () =
  Alcotest.test_case name `Quick @@ fun () ->
  let suite = load_suite suite in
  let trace = if wire then lsqb_of (trace ()) else trace () in
  let result =
    Fun.protect
      ~finally:(fun () -> if wire then Sys.remove trace)
      (fun () ->
        run_serve ~trace (fun ~out ->
            Server.serve ?stats_interval ?backend ?lateness ?checkpoint
              ?checkpoint_every ?ooo ~out ~input:`Stdin suite))
  in
  check_golden ?golden ~update:(not wire) name ~exit result;
  check (snd result)

let ipu () = example "traces" "ipu.csv"
let ipu_ooo () = example "traces" "ipu_ooo.csv"

let golden_cases =
  [
    case "ipu_compiled" ~exit:1 ~suite:"ipu.suite" ~trace:ipu
      ~stats_interval:100 ();
    case "ipu_flat" ~exit:1 ~suite:"ipu.suite" ~trace:ipu ~backend:(Some flat)
      ~stats_interval:100 ();
    (* no backend named: the buffered default (the flat engine) renders
       exactly the compiled golden *)
    case "ipu_default" ~golden:"ipu_compiled" ~exit:1 ~suite:"ipu.suite"
      ~trace:ipu ~backend:None ~stats_interval:100 ();
    case "ipu_ooo_buffered" ~exit:1 ~suite:"ipu.suite" ~trace:ipu_ooo
      ~stats_interval:100 ~lateness:75000 ();
    case "ipu_ooo_speculative" ~exit:1 ~suite:"ipu.suite" ~trace:ipu_ooo
      ~backend:None ~stats_interval:100 ~lateness:75000 ~ooo:true ();
    case "racy_buffered" ~exit:0 ~suite:"racy.suite" ~trace:racy_head_swapped
      ~lateness:200 ();
    case "racy_speculative" ~exit:0 ~suite:"racy.suite"
      ~trace:racy_head_swapped ~backend:None ~lateness:200 ~ooo:true
      ~check:(fun lines ->
        Alcotest.(check bool)
          "a speculative violation is retracted" true
          (has_line lines {|"type":"retracted"|});
        Alcotest.(check bool)
          "the late req forces one rollback" true
          (has_line lines {|"rollbacks":1|}))
      ();
    case "catalog_bad_flat" ~exit:1 ~suite:"catalog.suite"
      ~trace:(fun () -> example "traces" "catalog_bad.csv")
      ~backend:(Some flat) ();
    case "ipu_checkpoint" ~exit:1 ~suite:"ipu.suite" ~trace:ipu
      ~checkpoint:"server_golden.ckpt" ~checkpoint_every:50
      ~check:(fun _ -> Sys.remove "server_golden.ckpt")
      ();
    case "ooo_checkpoint_refused" ~exit:2 ~suite:"ipu.suite" ~trace:ipu
      ~backend:None ~checkpoint:"server_golden_ooo.ckpt" ~ooo:true ();
    (* direct monitors have no persistence: the first checkpoint ends
       the run with a typed error record *)
    case "direct_checkpoint_refused" ~exit:2 ~suite:"ipu.suite" ~trace:ipu
      ~backend:(Some direct) ~checkpoint:"server_golden_direct.ckpt"
      ~checkpoint_every:20 ();
  ]

(* Every chronological golden case again, fed its trace as LSQB: the
   binary wire path (stream ids resolved once to tap ids) must write
   the CSV run's records byte for byte. *)
let wire_cases =
  let wire name ?(golden = name) = case name ~golden ~wire:true in
  [
    wire "ipu_compiled" ~exit:1 ~suite:"ipu.suite" ~trace:ipu
      ~stats_interval:100 ();
    wire "ipu_flat" ~exit:1 ~suite:"ipu.suite" ~trace:ipu ~backend:(Some flat)
      ~stats_interval:100 ();
    wire "ipu_default" ~golden:"ipu_compiled" ~exit:1 ~suite:"ipu.suite"
      ~trace:ipu ~backend:None ~stats_interval:100 ();
    wire "catalog_bad_flat" ~exit:1 ~suite:"catalog.suite"
      ~trace:(fun () -> example "traces" "catalog_bad.csv")
      ~backend:(Some flat) ();
    wire "ipu_checkpoint" ~exit:1 ~suite:"ipu.suite" ~trace:ipu
      ~checkpoint:"server_golden.ckpt" ~checkpoint_every:50
      ~check:(fun _ -> Sys.remove "server_golden.ckpt")
      ();
    wire "direct_checkpoint_refused" ~exit:2 ~suite:"ipu.suite" ~trace:ipu
      ~backend:(Some direct) ~checkpoint:"server_golden_direct.ckpt"
      ~checkpoint_every:20 ();
  ]

(* ---- checkpoint resume ----------------------------------------------- *)

let contains hay needle = has_line [ hay ] needle

(* Verdict records up to the provenance chain: a resumed run captures
   its witnesses from the replayed suffix only. *)
let verdicts lines =
  List.filter_map
    (fun l ->
      if not (contains l {|"type":"verdict"|}) then None
      else
        let key = {|,"provenance":|} in
        let n = String.length key in
        let rec cut i =
          if i + n > String.length l then l
          else if String.sub l i n = key then String.sub l 0 i ^ "}"
          else cut (i + 1)
        in
        Some (cut 0))
    lines

(* The first 200 events of ipu.csv. *)
let ipu_prefix () =
  let path = Filename.temp_file "ipu_prefix" ".csv" in
  write_lines path (List.filteri (fun i _ -> i <= 200) (read_lines (ipu ())));
  path

(* Serve a prefix under [src] with periodic checkpoints, then resume
   the full stream under [dst]: the verdicts and exit code are those of
   the uninterrupted run on the structural monitor (ipu's one Fail is
   a deadline miss, which carries no event locator).  [Some compiled]
   names the backend explicitly; [None] takes the default.  Both write
   the one flat-engine blob. *)
let test_resume ~src ~dst () =
  let suite = load_suite "ipu.suite" in
  let ckpt = Filename.temp_file "server_resume" ".ckpt" in
  Sys.remove ckpt;
  let serve ?backend ?checkpoint ?checkpoint_every ?resume trace =
    run_serve ~trace (fun ~out ->
        Server.serve ?backend ?checkpoint ?checkpoint_every ?resume ~out
          ~input:`Stdin suite)
  in
  let full_code, full = serve ~backend:direct (ipu ()) in
  let _ = serve ?backend:src ~checkpoint:ckpt ~checkpoint_every:50 (ipu_prefix ()) in
  let written = String.concat "\n" (read_lines ckpt) in
  Alcotest.(check bool)
    "checkpoint engine" true
    (contains written {|"engine":"flat"|});
  let code, resumed =
    serve ?backend:dst ~checkpoint:ckpt ~resume:true (ipu ())
  in
  Sys.remove ckpt;
  Alcotest.(check bool) "resumed" true (has_line resumed {|"resumed":true|});
  Alcotest.(check (list string)) "verdicts" (verdicts full) (verdicts resumed);
  Alcotest.(check int) "exit code" full_code code

(* test/golden/ipu_v1.ckpt is a version-1 (per-checker JSON) checkpoint
   written by [serve --backend compiled --checkpoint-every 50] on the
   first 200 events of ipu.csv.  Version 1 is no longer read: resuming
   it ends the run before the start record with one typed [error]
   record and exit 2. *)
let test_resume_v1_refused () =
  let suite = load_suite "ipu.suite" in
  let ckpt = Filename.temp_file "server_v1" ".ckpt" in
  write_lines ckpt (read_lines (golden_path "ipu_v1.ckpt"));
  let code, lines =
    run_serve ~trace:(ipu ()) (fun ~out ->
        Server.serve ~checkpoint:ckpt ~resume:true ~out ~input:`Stdin suite)
  in
  Sys.remove ckpt;
  Alcotest.(check int) "exit code" 2 code;
  match lines with
  | [ record ] ->
      Alcotest.(check bool) "an error record" true
        (contains record {|"type":"error"|});
      Alcotest.(check bool) "naming the version" true
        (contains record "unsupported checkpoint version 1 (expected 2)")
  | _ -> Alcotest.failf "expected one record, got %d" (List.length lines)

(* Resume reads only the hub's engine: a hosting without one refuses a
   valid checkpoint, before the start record, with one typed [error]
   record (the capture-side refusal's text) and exit 2. *)
let test_resume_direct_refused () =
  let suite = load_suite "ipu.suite" in
  let ckpt = Filename.temp_file "server_direct_resume" ".ckpt" in
  Sys.remove ckpt;
  let _ =
    run_serve ~trace:(ipu_prefix ()) (fun ~out ->
        Server.serve ~checkpoint:ckpt ~checkpoint_every:50 ~out ~input:`Stdin
          suite)
  in
  let code, lines =
    run_serve ~trace:(ipu ()) (fun ~out ->
        Server.serve ~backend:direct ~checkpoint:ckpt ~resume:true ~out
          ~input:`Stdin suite)
  in
  Sys.remove ckpt;
  Alcotest.(check int) "exit code" 2 code;
  match lines with
  | [ record ] ->
      Alcotest.(check bool) "an error record" true
        (contains record {|"type":"error"|});
      Alcotest.(check bool) "naming the hosting" true
        (contains record
           "hosted one monitor per pattern, which cannot be checkpointed \
            (checkpointing needs the one suite engine)")
  | _ -> Alcotest.failf "expected one record, got %d" (List.length lines)

let resume_cases =
  [
    Alcotest.test_case "default -> compiled" `Quick
      (test_resume ~src:None ~dst:(Some compiled));
    Alcotest.test_case "compiled -> default" `Quick
      (test_resume ~src:(Some compiled) ~dst:None);
    Alcotest.test_case "v1 fixture refused" `Quick test_resume_v1_refused;
    Alcotest.test_case "direct hosting refused" `Quick
      test_resume_direct_refused;
  ]

(* ---- chunk boundaries --------------------------------------------------- *)

(* A CSV with everything the line grammar tolerates: CRLF and LF
   endings, a comment, a blank line, padded fields, a name no checker
   hears, a late event, no final newline. *)
let mixed_csv =
  String.concat ""
    [
      "time,name\r\n";
      "# bring-up excerpt\r\n";
      "45000,lcdc_refresh\r\n";
      "  53150000 , set_imgAddr \r\n";
      "53180000,set_glAddr\n";
      "\r\n";
      "53165000,set_glSize\r\n";
      "53195000,start\r\n";
      "53195000, other_component\r\n";
      "53195000,read_img\r\n";
      "\t53294267,read_img\r\n";
      "53384281,read_img";
    ]

(* [serve] with stdin a sequenced-packet socket holding [pieces]: each
   read returns exactly one piece, so the chunk boundaries are the
   caller's. *)
let run_serve_pieces pieces serve =
  let reader, writer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_SEQPACKET 0 in
  List.iter
    (fun p ->
      if p <> "" then
        ignore (Unix.write_substring writer p 0 (String.length p)))
    pieces;
  Unix.close writer;
  let out_path = Filename.temp_file "loseq_serve" ".ndjson" in
  let oc = open_out_bin out_path in
  let saved = Unix.dup Unix.stdin in
  Unix.dup2 reader Unix.stdin;
  Unix.close reader;
  let code =
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        Unix.dup2 saved Unix.stdin;
        Unix.close saved)
      (fun () -> serve ~out:oc)
  in
  let lines = read_lines out_path in
  Sys.remove out_path;
  (code, lines)

(* The mixed CSV split in two at every byte offset serves exactly as
   the whole, buffered and speculative. *)
let test_split_everywhere ~ooo () =
  let suite = load_suite "ipu.suite" in
  let serve ~out =
    Server.serve ~lateness:75000 ~ooo ~stats_interval:3 ~out ~input:`Stdin
      suite
  in
  let whole = run_serve_pieces [ mixed_csv ] serve in
  Alcotest.(check bool)
    "the foreign name is counted" true
    (has_line (snd whole) {|"events":9|});
  let n = String.length mixed_csv in
  for cut = 1 to n - 1 do
    let split =
      run_serve_pieces
        [ String.sub mixed_csv 0 cut; String.sub mixed_csv cut (n - cut) ]
        serve
    in
    Alcotest.(check (pair int (list string)))
      (Printf.sprintf "split at byte %d" cut)
      whole split
  done

let split_cases =
  [
    Alcotest.test_case "mixed CSV, buffered" `Quick
      (test_split_everywhere ~ooo:false);
    Alcotest.test_case "mixed CSV, speculative" `Quick
      (test_split_everywhere ~ooo:true);
  ]

(* ---- artifact writes ---------------------------------------------------- *)

let last l = List.nth l (List.length l - 1)

let test_atomic_write () =
  let path = "atomic_file_test.txt" in
  Alcotest.(check (result int string))
    "bytes written" (Ok 5)
    (Atomic_file.write ~path "hello");
  Alcotest.(check (list string)) "content" [ "hello" ] (read_lines path);
  Alcotest.(check bool) "no temporary left" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  match Atomic_file.write ~path:"no-such-dir/f.txt" "x" with
  | Ok _ -> Alcotest.fail "wrote into a missing directory"
  | Error msg ->
      Alcotest.(check bool) "error names the path" true
        (has_line [ msg ] "no-such-dir/f.txt")

(* An unwritable trace or profile path ends the run with a typed
   [error] record and exit 2, after the summary, in both modes. *)
let test_unwritable_artifact ~ooo ~trace_out ~profile_out () =
  let suite = load_suite "ipu.suite" in
  let code, lines =
    run_serve ~trace:(ipu ()) (fun ~out ->
        Server.serve ~ooo ?trace_out ?profile_out ~out ~input:`Stdin suite)
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "summary still emitted" true
    (has_line lines {|"type":"summary"|});
  Alcotest.(check bool) "ends in an error record" true
    (has_line [ last lines ] {|"type":"error"|}
    && has_line [ last lines ] "no-such-dir/")

(* The profile counts every event of each entry's alphabet, also
   after the entry's first violation froze its provenance ring. *)
let test_profile_counts_every_event () =
  let suite = load_suite "ipu.suite" in
  let path = Filename.temp_file "loseq_profile" ".json" in
  let code, _ =
    run_serve ~trace:(ipu ()) (fun ~out ->
        Server.serve ~profile_out:path ~out ~input:`Stdin suite)
  in
  let profile = String.concat "\n" (read_lines path) in
  Sys.remove path;
  Alcotest.(check int) "exit code" 1 code;
  let trace =
    match Trace_io.load_csv (ipu ()) with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  let steps =
    match Json.of_string profile with
    | Ok json ->
        List.map
          (fun c ->
            match (Json.member "label" c, Json.member "steps" c) with
            | Some (Json.String l), Some (Json.Int n) -> (l, n)
            | _ -> Alcotest.fail "malformed checker record")
          (Option.value ~default:[]
             (Option.bind (Json.member "checkers" json) Json.to_list_opt))
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list (pair string int)))
    "steps = alphabet events"
    (List.map
       (fun (e : Suite.entry) ->
         ( e.label,
           List.length
             (List.filter
                (fun (ev : Trace.event) ->
                  Name.Set.mem ev.name (Pattern.alpha e.pattern))
                trace) ))
       suite)
    steps

let artifact_cases =
  [
    Alcotest.test_case "atomic write" `Quick test_atomic_write;
    Alcotest.test_case "profile counts every event" `Quick
      test_profile_counts_every_event;
    Alcotest.test_case "unwritable trace, buffered" `Quick
      (test_unwritable_artifact ~ooo:false
         ~trace_out:(Some "no-such-dir/t.json") ~profile_out:None);
    Alcotest.test_case "unwritable trace, speculative" `Quick
      (test_unwritable_artifact ~ooo:true
         ~trace_out:(Some "no-such-dir/t.ndjson") ~profile_out:None);
    Alcotest.test_case "unwritable profile" `Quick
      (test_unwritable_artifact ~ooo:false ~trace_out:None
         ~profile_out:(Some "no-such-dir/p.json"));
  ]

let () =
  Alcotest.run "server"
    [
      ("golden", golden_cases);
      ("wire", wire_cases);
      ("resume", resume_cases);
      ("split", split_cases);
      ("artifacts", artifact_cases);
    ]
