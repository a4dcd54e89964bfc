(* Golden output of the analyzer CLI on the committed example suites:

     loseq analyze --suite examples/specs/<s>.suite --races
       --certify-lateness 1 --budget 20000 --format <f>

   for every suite and every --format, pinned byte for byte against
   test/golden/analyze_<s>.<txt|json|sarif>, together with the exit
   code (2: a lateness of 1 is beyond every suite's certified bound,
   so each run reports reorder-unsafe errors).  The SARIF goldens
   carry the tool version as the placeholder @VERSION@, which the test
   replaces with {!Loseq_core.Version.current}.

   The binary runs from the build root so that the suite paths in the
   findings read examples/specs/<s>.suite.  To regenerate after an
   intended output change, run the command above from the repository
   root for each suite and format, and put @VERSION@ back into the
   SARIF "version" member of tool.driver.

   The "cli" group pins the rest of the binary's surface:
   - the --help=plain page of the top level and of every subcommand,
     byte for byte against test/golden/help_<cmd>.txt (help_loseq_cli.txt
     for the top level); regenerate one with
     [loseq_cli <cmd> --help=plain > test/golden/help_<cmd>.txt];
   - the exit code and stderr of the input-error paths: an ill-formed
     suite entry, a missing trace file, an unknown --property, a bad
     endpoint address and a negative --certify-lateness;
   - an unwritable [analyze --plan-out] path (exit 3, the path on
     stderr), an unwritable [soc --csv] path (exit 2), [serve --ooo]
     with a [--backend] (exit 2, one [error] record), [check --strict]
     on a foreign name (exit 1, a FAIL line), a dangling
     symlink in a --traces directory (skipped with a warning) and the
     stderr of [dfa] past its state limit (exit 1);
   - the [soc] verification report (verdicts and per-checker coverage)
     byte for byte against test/golden/soc_<case>.txt, with its exit
     code, and the PSL backend's refusal of the recognition property
     (exit 2); regenerate one with
     [loseq_cli soc --presses 2 <flags> > test/golden/soc_<case>.txt]. *)

open Loseq_core

(* The build root: the test directory's parent under [dune runtest],
   _build/default under [dune exec] from the repository root. *)
let root =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "bin/loseq_cli.exe"))
    [ ".."; "_build/default" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* test/golden under [dune runtest] runs from test/, so the golden
   directory is either ./golden or ./test/golden. *)
let golden file =
  read_file
    (if Sys.file_exists (Filename.concat "golden" file) then
       Filename.concat "golden" file
     else Filename.concat "test/golden" file)

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Run the CLI from [root]; (exit code, stdout, stderr). *)
let run root args =
  let out = Filename.temp_file "loseq_cli" ".out"
  and err = Filename.temp_file "loseq_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err)
  @@ fun () ->
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let code =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
    Sys.command
      (Filename.quote_command ~stdin:Filename.null ~stdout:out ~stderr:err
         "bin/loseq_cli.exe" args)
  in
  (code, read_file out, read_file err)

let analyze root ~suite ~format =
  let code, out, _ =
    run root
      [
        "analyze"; "--suite"; "examples/specs/" ^ suite ^ ".suite";
        "--races"; "--certify-lateness"; "1"; "--budget"; "20000";
        "--format"; format;
      ]
  in
  (code, out)

let case suite (format, ext) =
  Alcotest.test_case (suite ^ " " ^ format) `Quick @@ fun () ->
  match root with
  | None -> Alcotest.fail "bin/loseq_cli.exe not found"
  | Some root ->
      let code, got = analyze root ~suite ~format in
      let file = Printf.sprintf "analyze_%s.%s" suite ext in
      let golden =
        golden file |> replace_all ~sub:"@VERSION@" ~by:Version.current
      in
      Alcotest.(check string) "output" golden got;
      Alcotest.(check int) "exit code" 2 code

let formats = [ ("text", "txt"); ("json", "json"); ("sarif", "sarif") ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let cli_case name f =
  Alcotest.test_case name `Quick @@ fun () ->
  match root with
  | None -> Alcotest.fail "bin/loseq_cli.exe not found"
  | Some root -> f root

(* An unwritable --plan-out is an I/O failure (exit 3) that names the
   path, not an escaping exception. *)
let plan_out_unwritable root =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      "loseq-missing-dir/plan.json"
  in
  let code, _, err =
    run root
      [
        "analyze"; "--suite"; "examples/specs/ipu.suite"; "--shard-plan"; "2";
        "--plan-out"; path;
      ]
  in
  Alcotest.(check int) "exit code" 3 code;
  Alcotest.(check bool) "stderr names the path" true (contains ~sub:path err);
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~sub:"uncaught exception" err)

(* soc writes its --csv/--vcd dumps like every other artifact: an
   unwritable path is exit 2 naming the path. *)
let soc_csv_unwritable root =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "loseq-missing-dir/x.csv"
  in
  let code, _, err = run root [ "soc"; "--presses"; "1"; "--csv"; path ] in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "stderr names the path" true (contains ~sub:path err);
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~sub:"uncaught exception" err)

(* A --checkpoint that names a directory is an input error: exit 2 and
   one [error] record naming the path, not an escaping exception. *)
let checkpoint_directory root =
  let dir = Filename.temp_dir "loseq_ckpt" "" in
  let code, out, err =
    Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
    run root
      [
        "serve"; "--suite"; "examples/specs/ipu.suite"; "--checkpoint"; dir;
        "--resume";
      ]
  in
  Alcotest.(check int) "exit code" 2 code;
  (match String.split_on_char '\n' (String.trim out) with
  | [ record ] ->
      Alcotest.(check bool) "an error record" true
        (contains ~sub:{|"type":"error"|} record);
      Alcotest.(check bool) "naming the path" true (contains ~sub:dir record)
  | records ->
      Alcotest.failf "expected one record, got %d" (List.length records));
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~sub:"uncaught exception" err)

(* The speculative engine always steps the flat engine: naming a
   backend under --ooo is refused up front, exit 2 and one [error]
   record. *)
let ooo_backend_refused root =
  let code, out, err =
    run root
      [
        "serve"; "--suite"; "examples/specs/ipu.suite"; "--ooo"; "--backend";
        "compiled";
      ]
  in
  Alcotest.(check int) "exit code" 2 code;
  (match String.split_on_char '\n' (String.trim out) with
  | [ record ] ->
      Alcotest.(check bool) "an error record" true
        (contains ~sub:{|"type":"error"|} record);
      Alcotest.(check bool) "naming --backend" true
        (contains ~sub:"--backend" record)
  | records ->
      Alcotest.failf "expected one record, got %d" (List.length records));
  Alcotest.(check bool) "no uncaught exception" false
    (contains ~sub:"uncaught exception" err)

(* A dangling symlink in a --traces directory is skipped with a warning,
   as an unreadable file is: every workload mode exits as it does
   without the link. *)
let traces_dangling_symlink root =
  let dir = Filename.temp_dir "loseq_traces" "" in
  let link = Filename.concat dir "dangling" in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Array.to_list (Sys.readdir dir));
      Sys.rmdir dir)
  @@ fun () ->
  Out_channel.with_open_bin (Filename.concat dir "racy_ok.csv") (fun oc ->
      output_string oc (read_file (Filename.concat root "examples/traces/racy_ok.csv")));
  let racy = "examples/specs/racy.suite" in
  let modes =
    [
      [ "analyze"; "--suite"; racy; "--coverage"; "--budget"; "20000" ];
      [ "analyze"; "--suite"; racy; "--shard-plan"; "2"; "--budget"; "20000" ];
      [ "mutate"; racy; "--budget"; "2000" ];
    ]
  in
  let without =
    List.map (fun args -> (fun (c, _, _) -> c) (run root (args @ [ "--traces"; dir ]))) modes
  in
  Unix.symlink (Filename.concat dir "nowhere") link;
  List.iter2
    (fun args code ->
      let got, _, err = run root (args @ [ "--traces"; dir ]) in
      let name = String.concat " " (List.filteri (fun i _ -> i < 4) args) in
      Alcotest.(check int) (name ^ ": exit code") code got;
      Alcotest.(check bool) (name ^ ": warning") true
        (contains ~sub:("warning: skipping " ^ link) err))
    modes without

let dfa_state_limit root =
  let code, out, err =
    run root [ "dfa"; "--max-states"; "4"; "{a, b, c} << d" ]
  in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "stdout" "" out;
  Alcotest.(check string) "stderr"
    "state space exceeds 4 states (wide ranges make the explicit product \
     explode; that is what the modular monitors avoid)\n"
    err

(* check --strict rejects a name foreign to the pattern (exit 1, one
   FAIL line naming it); without --strict the same trace passes. *)
let check_strict_foreign root =
  let args = [ "check"; "a <<! i"; "-t"; "a zzz i" ] in
  let code, out, _ = run root (args @ [ "--strict" ]) in
  Alcotest.(check int) "strict: exit code" 1 code;
  (match String.split_on_char '\n' out with
  | first :: _ ->
      Alcotest.(check bool) "a FAIL line" true
        (String.starts_with ~prefix:"FAIL: " first);
      Alcotest.(check bool) "naming the foreign event" true
        (contains ~sub:"foreign event zzz" first)
  | [] -> Alcotest.fail "no output");
  let code, _, _ = run root args in
  Alcotest.(check int) "lenient: exit code" 0 code

(* explain-verdict replays the minimized chain on the compiled engine
   and on the structural monitor, built independently of it, and exits
   0 when both reproduce the Fail. *)
let explain_verdict_replays root =
  let args format =
    [
      "explain-verdict"; "--suite"; "examples/specs/ipu.suite"; "--property";
      "recognition_bounded"; "--format"; format; "examples/traces/ipu.csv";
    ]
  in
  let code, out, _ = run root (args "text") in
  Alcotest.(check int) "text: exit code" 0 code;
  Alcotest.(check bool) "text: both replays fail" true
    (contains ~sub:"replay: compiled Fail, direct Fail\n" out);
  let code, out, _ = run root (args "json") in
  Alcotest.(check int) "json: exit code" 0 code;
  List.iter
    (fun field ->
      Alcotest.(check bool) field true
        (contains ~sub:(Printf.sprintf "%S: true" field) out))
    [ "compiled_fails"; "direct_fails" ]

let subcommands =
  [
    "analyze"; "check"; "convert"; "cost"; "dfa"; "explain-verdict"; "feed";
    "gen"; "lint"; "mutate"; "psl"; "serve"; "soc"; "stats"; "suite"; "trace";
  ]

let help_case cmd =
  cli_case ("help " ^ Option.value cmd ~default:"loseq_cli") @@ fun root ->
  let code, out, _ =
    run root (Option.to_list cmd @ [ "--help=plain" ])
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "help page"
    (golden
       (Printf.sprintf "help_%s.txt" (Option.value cmd ~default:"loseq_cli")))
    out

(* [soc --presses 2 flags] prints test/golden/soc_<case>.txt and exits
   [code]. *)
let soc_case case ~code flags =
  cli_case ("soc " ^ case) @@ fun root ->
  let got, out, _ = run root ([ "soc"; "--presses"; "2" ] @ flags) in
  Alcotest.(check int) "exit code" code got;
  Alcotest.(check string) "report" (golden ("soc_" ^ case ^ ".txt")) out

let soc_cases =
  [
    soc_case "default" ~code:0 [];
    soc_case "start_first" ~code:1 [ "--bug"; "start-first" ];
    soc_case "slow_ipu" ~code:1 [ "--slow-ipu" ];
    soc_case "direct" ~code:0 [ "--backend"; "direct" ];
  ]

(* [args] must fail with exactly [stderr] and exit [code]. *)
let input_error name ~code ~stderr args =
  cli_case name @@ fun root ->
  let got, _, err = run root args in
  Alcotest.(check int) "exit code" code got;
  Alcotest.(check string) "stderr" stderr err

let bad_suite =
  lazy
    (let path = Filename.temp_file "loseq_bad" ".suite" in
     at_exit (fun () -> Sys.remove path);
     Out_channel.with_open_bin path (fun oc ->
         output_string oc "ok: {a, b} << start\nbroken: {a, b << start\n");
     path)

(* Suite-loading commands name the ill-formed line; lint and analyze,
   which take several suites, also name the file.  [args path] builds
   the command line around the suite path. *)
let ill_formed_suite cmd ~code ?(named = false) args =
  cli_case ("ill-formed suite, " ^ cmd) @@ fun root ->
  let path = Lazy.force bad_suite in
  let got, _, err = run root (args path) in
  Alcotest.(check int) "exit code" code got;
  Alcotest.(check string) "stderr"
    ((if named then path ^ ": " else "")
    ^ "suite error at line 2: parse error at offset 6: expected ',', '|' \
       or '}' in fragment\n")
    err

let missing_trace =
  Filename.concat (Filename.get_temp_dir_name ()) "loseq-missing-dir/t.csv"

let missing_trace_case cmd ~code ?(prefix = "trace error") args =
  input_error ("missing trace, " ^ cmd) ~code
    ~stderr:
      (Printf.sprintf "%s: %s: No such file or directory\n" prefix
         missing_trace)
    args

let input_errors =
  let racy = "examples/specs/racy.suite"
  and racy_ok = "examples/traces/racy_ok.csv" in
  [
    ill_formed_suite "suite" ~code:2 (fun s -> [ "suite"; s; "-f"; racy_ok ]);
    ill_formed_suite "serve" ~code:2 (fun s -> [ "serve"; "--suite"; s ]);
    ill_formed_suite "trace" ~code:2 (fun s ->
        [ "trace"; "--suite"; s; racy_ok ]);
    ill_formed_suite "explain-verdict" ~code:2 (fun s ->
        [ "explain-verdict"; "--suite"; s; "--property"; "ok"; racy_ok ]);
    ill_formed_suite "lint" ~code:3 ~named:true (fun s ->
        [ "lint"; "--suite"; s ]);
    ill_formed_suite "analyze" ~code:3 ~named:true (fun s ->
        [ "analyze"; "--suite"; s ]);
    ill_formed_suite "analyze positional" ~code:3 ~named:true (fun s ->
        [ "analyze"; s ]);
    ill_formed_suite "mutate" ~code:3 (fun s -> [ "mutate"; s ]);
    missing_trace_case "check" ~code:1
      [ "check"; "{a} << b"; "-f"; missing_trace ];
    missing_trace_case "suite" ~code:2 [ "suite"; racy; "-f"; missing_trace ];
    missing_trace_case "trace" ~code:2
      [ "trace"; "--suite"; racy; missing_trace ];
    missing_trace_case "explain-verdict" ~code:2
      [
        "explain-verdict"; "--suite"; racy; "--property"; "handshake";
        missing_trace;
      ];
    missing_trace_case "convert" ~code:2 ~prefix:"convert"
      [ "convert"; missing_trace ];
    input_error "unknown property" ~code:2
      ~stderr:
        "explain-verdict: no property \"nope\" in examples/specs/racy.suite\n"
      [ "explain-verdict"; "--suite"; racy; "--property"; "nope"; racy_ok ];
    input_error "bad metrics-addr" ~code:2
      ~stderr:"--metrics-addr \"nope\": expected HOST:PORT\n"
      [ "serve"; "--suite"; racy; "--metrics-addr"; "nope" ];
    input_error "bad metrics-addr port" ~code:2
      ~stderr:"--metrics-addr \":99999\": invalid port\n"
      [ "serve"; "--suite"; racy; "--metrics-addr"; ":99999" ];
    input_error "certify-lateness=-1" ~code:3
      ~stderr:"--certify-lateness: K must be >= 0\n"
      [ "analyze"; "--suite"; racy; "--certify-lateness=-1" ];
    input_error "bad stats addr" ~code:2
      ~stderr:"stats: --addr \"nope\": expected HOST:PORT\n"
      [ "stats"; "--addr"; "nope" ];
    input_error "soc psl refused" ~code:2
      ~stderr:
        "backend error: Translate.to_psl: range read_img[100,60000] is wider \
         than 256; its quadratic PSL encoding would not fit in memory (use \
         formula_size)\n"
      [ "soc"; "--presses"; "2"; "--backend"; "psl" ];
  ]

let () =
  Alcotest.run "analyze_golden"
    (List.map
       (fun suite -> (suite, List.map (case suite) formats))
       [ "catalog"; "defective"; "ipu"; "racy" ]
    @ [
        ( "cli",
          [
            cli_case "plan-out unwritable" plan_out_unwritable;
            cli_case "dfa state limit" dfa_state_limit;
            cli_case "soc csv unwritable" soc_csv_unwritable;
            cli_case "traces dangling symlink" traces_dangling_symlink;
            cli_case "checkpoint directory" checkpoint_directory;
            cli_case "ooo backend refused" ooo_backend_refused;
            cli_case "check --strict foreign name" check_strict_foreign;
            cli_case "explain-verdict replays" explain_verdict_replays;
          ]
          @ List.map help_case
              (None :: List.map Option.some subcommands)
          @ soc_cases @ input_errors );
      ])
