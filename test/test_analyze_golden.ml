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

   The "cli" group pins two error paths of the same binary: an
   unwritable [analyze --plan-out] path (exit 3, the path on stderr)
   and the stderr of [dfa] past its state limit (exit 1). *)

open Loseq_core

(* The build root: the test directory's parent under [dune runtest],
   _build/default under [dune exec] from the repository root. *)
let root =
  List.find_opt
    (fun dir -> Sys.file_exists (Filename.concat dir "bin/loseq_cli.exe"))
    [ ".."; "_build/default" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

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
      (Filename.quote_command ~stdout:out ~stderr:err "bin/loseq_cli.exe"
         args)
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
        read_file
          (if Sys.file_exists (Filename.concat "golden" file) then
             Filename.concat "golden" file
           else Filename.concat "test/golden" file)
        |> replace_all ~sub:"@VERSION@" ~by:Version.current
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
          ] );
      ])
