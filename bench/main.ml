(* Benchmark harness: regenerates every evaluation artifact of the paper.

   Section 1  — Figure 6: the Drct vs ViaPSL comparison table, with the
                paper's reported numbers, our analytic models and the
                measured values of the real OCaml monitors.
   Section 2  — Section-7 complexity claims: parameter sweeps showing the
                published Θ-shapes (range width, fragment width, chain
                length).
   Section 3  — Case-study workload: the properties monitored on traces
                from the Fig. 2 virtual platform; hosted dispatch of N
                disjoint checkers (BENCH_dispatch.json); analysis,
                mutation, speculation and shard-planning costs.
   Section 4  — Bechamel wall-clock micro-benchmarks of Monitor.step for
                each Fig. 6 configuration.

   Every timing goes through {!measure} (monotonic wall clock, one
   warm-up round, interleaved rounds, median and quartiles) and every
   BENCH_*.json through {!write_artifact}.

   Run with: dune exec bench/main.exe [SECTION]... *)

open Loseq_core

let pat = Parser.pattern_exn

let line = String.make 78 '-'

let section title =
  Format.printf "@.%s@.%s@.%s@." line title line

(* Example inputs, found from the project root or a dune sandbox. *)
let example path =
  List.find_opt Sys.file_exists [ path; Filename.concat ".." path ]
  |> Option.value ~default:path

(* ---- timing ------------------------------------------------------------ *)

(* Wall-clock seconds of one variant: the samples in round order, and
   quartiles by linear interpolation between order statistics. *)
type timing = {
  q1 : float;
  median : float;
  q3 : float;
  samples : float array;
}

let timing_of samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  let last = Array.length s - 1 in
  let at p =
    let pos = p *. float_of_int last in
    let lo = int_of_float pos in
    let hi = min (lo + 1) last in
    s.(lo) +. ((s.(hi) -. s.(lo)) *. (pos -. float_of_int lo))
  in
  { q1 = at 0.25; median = at 0.5; q3 = at 0.75; samples }

(* [measure variants] times every [(key, prepare)] variant: [prepare ()]
   runs untimed and returns the thunk that is timed on the monotonic
   clock, from a fully collected heap so that no variant pays for the
   garbage of the one before.  One discarded warm-up round, then
   [rounds] interleaved rounds (each runs every variant once, in order)
   so that frequency drift and background load spread evenly over the
   variants. *)
let measure ?(rounds = 9) variants =
  let time prepare =
    let run = prepare () in
    Gc.full_major ();
    let t0 = Monotonic_clock.now () in
    run ();
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
  in
  List.iter (fun (_, prepare) -> ignore (time prepare)) variants;
  let samples = List.map (fun _ -> Array.make rounds 0.) variants in
  for r = 0 to rounds - 1 do
    List.iter2 (fun (_, prepare) s -> s.(r) <- time prepare) variants samples
  done;
  List.map2 (fun (key, _) s -> (key, timing_of s)) variants samples

(* "median [q1, q3]", in milliseconds *)
let show_timing t =
  Printf.sprintf "%.3f [%.3f, %.3f]" (t.median *. 1e3) (t.q1 *. 1e3)
    (t.q3 *. 1e3)

(* ---- artifacts --------------------------------------------------------- *)

(* Every BENCH_*.json artifact records where it came from: the git
   revision of the tree that produced it, the backend it exercises,
   and the toolchain — so a number in CI can be traced to a commit. *)
let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | l -> Option.map String.trim l
  | exception Sys_error _ -> None

let git_rev () =
  (* benches may run from the project root or a dune sandbox: walk up a
     few levels looking for .git/HEAD, then follow one "ref: " hop,
     to the loose ref file or else to its packed-refs line *)
  let rec find dir depth =
    if depth > 4 then None
    else if Sys.file_exists (Filename.concat dir ".git/HEAD") then
      Some (Filename.concat dir ".git")
    else find (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  let packed git ref_name =
    match
      In_channel.with_open_text (Filename.concat git "packed-refs")
        In_channel.input_lines
    with
    | lines ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ rev; r ] when r = ref_name -> Some rev
            | _ -> None)
          lines
    | exception Sys_error _ -> None
  in
  let rev =
    Option.bind (find Filename.current_dir_name 0) (fun git ->
        match read_first_line (Filename.concat git "HEAD") with
        | Some head when String.starts_with ~prefix:"ref: " head -> (
            let ref_name =
              String.trim (String.sub head 5 (String.length head - 5))
            in
            match read_first_line (Filename.concat git ref_name) with
            | Some rev when rev <> "" -> Some rev
            | _ -> packed git ref_name)
        | Some "" | None -> None
        | head -> head)
  in
  Option.value rev ~default:"unknown"

(* Write BENCH_<name>.json: the benchmark name and provenance stamp,
   then [fields]. *)
let write_artifact ~backend name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let provenance =
    Json.Obj
      [
        ("git_rev", Json.String (git_rev ()));
        ("backend", Json.String backend);
        ("ocaml", Json.String Sys.ocaml_version);
        ("loseq_version", Json.String Version.current);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Format.fprintf
        (Format.formatter_of_out_channel oc)
        "%a@." Json.pp
        (Json.Obj
           (("benchmark", Json.String name)
           :: ("provenance", provenance) :: fields)));
  Format.printf "@.written: %s@." path

let ns s = Json.Int (Float.to_int (Float.round (s *. 1e9)))

let timing_json t =
  [ ("median_ns", ns t.median); ("q1_ns", ns t.q1); ("q3_ns", ns t.q3) ]

(* Ratios and percentages, rounded to three decimals. *)
let fixed x = Json.Float (Float.round (x *. 1000.) /. 1000.)

(* Mean measured ops/event and measured storage of the real monitor on a
   satisfying workload. *)
let measured ?(rounds = 20) p =
  let rng = Random.State.make [| 0xbe7c |] in
  let trace = Generate.valid ~rounds ~max_run:4 rng p in
  let ops = ref 0 in
  let monitor = Monitor.create ~ops p in
  List.iter (fun e -> ignore (Monitor.step monitor e)) trace;
  let events = max 1 (Trace.length trace) in
  (!ops / events, Monitor.space_bits monitor, events)

(* ---- Section 1: Figure 6 ---------------------------------------------- *)

type fig6_row = {
  label : string;
  source : string;
  paper_drct : int * int;
  paper_viapsl : string * string;
}

let fig6_rows =
  [
    { label = "(n << i, true)"; source = "n <<! i";
      paper_drct = (80, 192); paper_viapsl = ("238+D", "896+D") };
    { label = "(n[100,60K] << i, true)"; source = "n[100,60000] <<! i";
      paper_drct = (80, 192); paper_viapsl = ("4x10^11+D", "2x10^12+D") };
    { label = "(({n1..n4},and) << i, false)"; source = "{n1, n2, n3, n4} << i";
      paper_drct = (230, 1132); paper_viapsl = ("1785+D", "6720+D") };
    { label = "(({n1..n5},and) << i, false)";
      source = "{n1, n2, n3, n4, n5} << i";
      paper_drct = (280, 1568); paper_viapsl = ("2142+D", "8064+D") };
    { label = "(n1 => n2<n3<n4, T)";
      source = "n1 => n2 < n3 < n4 within 1000";
      paper_drct = (296, 1051); paper_viapsl = ("1428+D", "5376+D") };
    { label = "(n1 => n2[100,60K]<n3<n4, T)";
      source = "n1 => n2[100,60000] < n3 < n4 within 1000";
      paper_drct = (296, 1051); paper_viapsl = ("4x10^11+D", "2x10^12+D") };
  ]

let human n =
  if n < 100_000 then string_of_int n
  else Printf.sprintf "%.1e" (float_of_int n)

let figure6 () =
  section "Figure 6 - Comparison of Drct and ViaPSL strategies";
  Format.printf
    "%-34s | %18s | %18s | %18s@."
    "configuration" "Drct paper" "Drct model" "Drct measured";
  Format.printf
    "%-34s | %18s | %18s | %18s@."
    "" "(ops, bits)" "(ops, bits)" "(ops, bits)";
  Format.printf "%s@." line;
  List.iter
    (fun row ->
      let p = pat row.source in
      let model = Cost.drct p in
      let m_ops, m_bits, _ = measured p in
      let paper_ops, paper_bits = row.paper_drct in
      Format.printf "%-34s | %8d, %8d | %8d, %8d | %8d, %8d@." row.label
        paper_ops paper_bits model.Cost.ops_per_event model.Cost.space_bits
        m_ops m_bits)
    fig6_rows;
  Format.printf "@.%-34s | %24s | %24s@." "configuration" "ViaPSL paper"
    "ViaPSL model (ops, bits)";
  Format.printf "%s@." line;
  List.iter
    (fun row ->
      let p = pat row.source in
      let via = Loseq_psl.Cost.via_psl p in
      let paper_ops, paper_bits = row.paper_viapsl in
      Format.printf "%-34s | %11s, %11s | %10s+D, %10s+D  (D=%s)@." row.label
        paper_ops paper_bits
        (human via.Loseq_psl.Cost.ops_per_event)
        (human via.Loseq_psl.Cost.space_bits)
        (human via.Loseq_psl.Cost.delta))
    fig6_rows;
  Format.printf
    "@.shape check: Drct model reproduces the paper's Drct column exactly;@.";
  Format.printf
    "ranges do not affect Drct at all, while they push ViaPSL to ~10^11 ops@.";
  Format.printf "and ~10^12 bits, as reported.@."

(* ---- Section 2: complexity sweeps -------------------------------------- *)

let sweep_range_width () =
  section
    "Sweep A (S7): range width w in n[1,w] - Drct flat, ViaPSL quadratic";
  Format.printf "%-10s | %12s | %12s | %14s | %14s@." "width" "Drct ops"
    "Drct bits" "ViaPSL ops" "ViaPSL bits";
  List.iter
    (fun w ->
      let p =
        Pattern.antecedent ~repeated:true
          [ Pattern.fragment [ Pattern.range ~lo:1 ~hi:w (Name.v "n") ] ]
          ~trigger:(Name.v "i")
      in
      let d = Cost.drct p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %14s | %14s@." w
        d.Cost.ops_per_event d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event)
        (human v.Loseq_psl.Cost.space_bits))
    [ 1; 10; 100; 1_000; 10_000; 60_000 ]

let sweep_fragment_width () =
  section
    "Sweep B (S7): names per fragment k - Drct time THETA(max |alpha(F)|)";
  Format.printf "%-10s | %12s | %12s | %12s | %14s@." "k" "Drct model"
    "Drct meas." "Drct bits" "ViaPSL ops";
  List.iter
    (fun k ->
      let ranges =
        List.init k (fun j -> Pattern.range (Name.v (Printf.sprintf "n%d" j)))
      in
      let p =
        Pattern.antecedent [ Pattern.fragment ranges ] ~trigger:(Name.v "i")
      in
      let d = Cost.drct p in
      let m_ops, _, _ = measured p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %12d | %14s@." k
        d.Cost.ops_per_event m_ops d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event))
    [ 1; 2; 4; 8; 16; 32 ]

let sweep_chain_length () =
  section
    "Sweep C (S7): q chained single-name fragments - Drct per-event time flat";
  Format.printf "%-10s | %12s | %12s | %12s | %14s@." "q" "Drct model*"
    "Drct meas." "Drct bits" "ViaPSL ops";
  Format.printf "  (*) the analytic model is calibrated on total names; the \
                 measured column@.      shows the max-active-fragment \
                 behaviour the paper's THETA describes.@.";
  List.iter
    (fun q ->
      let fragments =
        List.init q (fun j -> Pattern.single (Name.v (Printf.sprintf "n%d" j)))
      in
      let p = Pattern.antecedent fragments ~trigger:(Name.v "i") in
      let d = Cost.drct p in
      let m_ops, _, _ = measured p in
      let v = Loseq_psl.Cost.via_psl p in
      Format.printf "%-10d | %12d | %12d | %12d | %14s@." q
        d.Cost.ops_per_event m_ops d.Cost.space_bits
        (human v.Loseq_psl.Cost.ops_per_event))
    [ 1; 2; 4; 8; 16; 32 ]

(* ---- Section 2b: empirical ViaPSL (progression) ------------------------ *)

(* The ViaPSL numbers above come from a cost model; with the progression
   monitor the strategy can also be *executed* and measured, monitor
   against monitor, on identical satisfying workloads. *)
let empirical_viapsl () =
  section
    "Empirical Drct vs ViaPSL: both monitors executed on the same workload";
  Format.printf "%-34s | %10s | %12s | %12s@." "configuration"
    "Drct ops" "PSL rewrites" "PSL peak |f|";
  Format.printf
    "  (ops and rewrites per event; rows with 60000-wide ranges cannot@.";
  Format.printf
    "   even materialize their PSL formula - the point of the comparison)@.";
  List.iter
    (fun row ->
      let p = pat row.source in
      let rng = Random.State.make [| 0xd0c |] in
      let trace = Generate.valid ~rounds:10 ~max_run:4 rng p in
      let events = max 1 (Trace.length trace) in
      let drct_ops, _, _ = measured p in
      match Loseq_psl.Translate.to_psl p with
      | formula ->
          let monitor = Loseq_psl.Progress.create formula in
          List.iter
            (fun (e : Trace.event) ->
              ignore (Loseq_psl.Progress.step monitor e.Trace.name))
            (List.map
               (fun n -> { Trace.name = n; time = 0 })
               (Loseq_psl.Translate.expand_trace p (Trace.names trace)));
          Format.printf "%-34s | %10d | %12d | %12d@." row.label drct_ops
            (Loseq_psl.Progress.steps monitor / events)
            (Loseq_psl.Progress.peak_size monitor)
      | exception Invalid_argument _ ->
          Format.printf "%-34s | %10d | %12s | %12s@." row.label drct_ops
            "(too wide)" "(too wide)")
    fig6_rows

(* ---- Section 2c: explicit product automata ----------------------------- *)

let automaton_sizes () =
  section
    "Explicit monitor automata: the explosion the modular encoding avoids";
  Format.printf "%-34s | %12s | %12s | %12s@." "configuration" "DFA states"
    "minimized" "Drct bits";
  List.iter
    (fun (label, src) ->
      let p = pat src in
      let drct = Cost.drct p in
      match Automaton.of_pattern ~max_states:20000 p with
      | a ->
          let m = Automaton.minimize a in
          Format.printf "%-34s | %12d | %12d | %12d@." label
            a.Automaton.num_states m.Automaton.num_states drct.Cost.space_bits
      | exception Automaton.Too_many_states n ->
          Format.printf "%-34s | %9d+... | %12s | %12d@." label n "-"
            drct.Cost.space_bits)
    [
      ("(n << i, true)", "n <<! i");
      ("(({n1..n4},and) << i, false)", "{n1, n2, n3, n4} << i");
      ("(({n1..n5},and) << i, false)", "{n1, n2, n3, n4, n5} << i");
      ("fig. 4 property", "{n1, n2} < {n3[2,8] | n4} < n5 << i");
      ("(n1 => n2<n3<n4, T) shape", "n1 => n2 < n3 < n4 within 1000");
      ("n[1,2000] (counter blow-up)", "n[1,2000] <<! i");
    ]

(* ---- Section 2d: ablation - online monitor vs oracle re-checking ------- *)

let ablation_oracle () =
  section
    "Ablation: online Drct monitor vs per-event oracle re-checking";
  let p = pat "{a, b} < {c[2,8] | d} < e <<! i" in
  let rng = Random.State.make [| 77 |] in
  let traces =
    List.map
      (fun rounds -> Generate.valid ~rounds ~max_run:4 rng p)
      [ 20; 100; 300 ]
  in
  let monitor trace () =
    let m = Monitor.create p in
    List.iter (fun e -> ignore (Monitor.step m e)) trace
  and oracle trace () =
    let consumed = ref [] in
    List.iter
      (fun e ->
        consumed := e :: !consumed;
        ignore (Semantics.holds p (List.rev !consumed)))
      trace
  in
  let timings =
    measure
      (List.concat
         (List.mapi
            (fun i trace ->
              [
                ((i, `Monitor), fun () -> monitor trace);
                ((i, `Oracle), fun () -> oracle trace);
              ])
            traces))
  in
  Format.printf "%-10s | %27s | %27s@." "events" "monitor ms [q1, q3]"
    "oracle ms [q1, q3]";
  List.iteri
    (fun i trace ->
      Format.printf "%-10d | %27s | %27s@." (Trace.length trace)
        (show_timing (List.assoc (i, `Monitor) timings))
        (show_timing (List.assoc (i, `Oracle) timings)))
    traces

(* ---- Section 3: case-study workload ------------------------------------ *)

let case_study () =
  section "Case study (Section 3): properties on the Fig. 2 platform";
  let open Loseq_platform in
  let open Loseq_verif in
  let runs =
    [
      ("correct firmware", Soc.default_config);
      ( "bug: start-before-config",
        { Soc.default_config with cpu_bug = Some Cpu.Start_before_config;
          presses = 1 } );
      ( "bug: skip gl_size",
        { Soc.default_config with cpu_bug = Some Cpu.Skip_gl_size;
          presses = 1 } );
      ( "bug: double gl_addr",
        { Soc.default_config with cpu_bug = Some Cpu.Double_gl_addr;
          presses = 1 } );
      ( "bug: slow IPU (deadline)",
        { Soc.default_config with slow_ipu = true; presses = 1 } );
    ]
  in
  let setup config =
    let soc = Soc.create ~config () in
    let report = Soc.attach_standard_checkers soc in
    (soc, report, fun () -> Soc.run soc; Report.finalize report)
  in
  let timings =
    measure
      (List.map
         (fun (label, config) ->
           (label, fun () -> let _, _, run = setup config in run))
         runs)
  in
  List.iter
    (fun (label, config) ->
      let soc, report, run = setup config in
      run ();
      Format.printf
        "%-28s | %6d events | %d recognitions | verdicts: %-9s | %s ms host@."
        label
        (Tap.count (Soc.tap soc))
        (Ipu.recognitions (Soc.ipu soc))
        (if Report.all_passed report then "all PASS"
         else
           Printf.sprintf "%d FAIL" (List.length (Report.failures report)))
        (show_timing (List.assoc label timings)))
    runs

(* ---- Section 3b: hosted dispatch --------------------------------------- *)

(* N checkers with disjoint alphabets, {a_i, b_i} <<! go_i, on one tap,
   fed one round-robin satisfying stream a_i b_i go_i (cycling i; time
   advances one tick per triple) for N in {1, 4, 16, 64}.  Each variant
   hosts the same suite on the same stream; hosting is set up untimed,
   and the timed part delivers every event by name, as a session
   delivers decoded events, and checks that every checker passed.  At
   every N:
   - broadcast Drct: every structural monitor steps on every event
     (N steps/event);
   - hub per entry: one Hub.add per entry, so N one-checker engines,
     each stepped engine-direct on the names of its own alphabet
     (1 step/event), the hosted form of the paper's
     THETA(max |alpha(F_i)|) per-event bound;
   - flat engine: the whole suite as one engine, its dispatch table
     stepped engine-direct (Suite.attach_hub).
   At N = 16 the layers above and beside the hub:
   - decode only: the LSQB encoding of the stream through
     Codec.Decoder.feed_ids;
   - decode + session: bytes -> decoder -> Session.wire (the admission
     serve feeds LSQB through) -> verdicts;
   - hub + metrics, hub + trace: the hub with a live Obs registry or a
     live flight-recorder ring.
   Four bounds are read off time ratios taken within each round (their
   median over rounds): end to end within 2x of the hub, metrics and
   trace each within 5% of it, and the hub at least 5x broadcast at 16
   and 64 checkers. *)
let disjoint_suite n =
  List.init n (fun i ->
      {
        Loseq_verif.Suite.label = Printf.sprintf "p%d" i;
        pattern = pat (Printf.sprintf "{a%d, b%d} <<! go%d" i i i);
        line = i + 1;
      })

(* The render layer: the two records [serve --ooo] writes per late
   event on servebench's racy workload, a speculative [violation] (a
   missing [req]) and its [retracted], each built and written through
   the serve emitter to /dev/null, [render_count] records per timed
   run.  The figure is ns per record, channel writes included. *)
let render_count = 50_000

let render_records () =
  let open Loseq_ingest in
  let req = Pattern.range (Name.v "req_0") in
  let violation k =
    Server.violation_record ~speculative:true ~name:"handshake_0"
      {
        Diag.name = None;
        time = 150 * k;
        index = 3 * k;
        fragment = 0;
        reason = Diag.Missing req;
      }
  in
  let retracted _ = Server.retracted_record ~name:"handshake_0" in
  let null = open_out_bin "/dev/null" in
  let sink = Server.sink null in
  let timed record () () =
    for k = 1 to render_count do
      Server.emit_record sink (record k)
    done;
    flush null
  in
  let timings =
    measure
      [ ("violation", timed violation); ("retracted", timed retracted) ]
  in
  close_out null;
  let per_record t = t *. 1e9 /. float_of_int render_count in
  Format.printf "@.render, %d records per run, written to /dev/null:@."
    render_count;
  Format.printf "%-10s | %27s@." "record" "ns/record [q1, q3]";
  Json.Obj
    (("records", Json.Int render_count)
    :: List.map
         (fun (record, t) ->
           Format.printf "%-10s | %9.1f [%.1f, %.1f]@." record
             (per_record t.median) (per_record t.q1) (per_record t.q3);
           ( record,
             Json.Obj
               (timing_json t
               @ [ ("ns_per_record", fixed (per_record t.median)) ]) ))
         timings)

let dispatch () =
  section "Hosted dispatch: N disjoint checkers on one tap, every hosting";
  let open Loseq_sim in
  let open Loseq_verif in
  let open Loseq_ingest in
  let module Metrics = Loseq_obs.Metrics in
  let module Ring = Loseq_obs.Trace in
  let rounds = 15 and layered = 16 in
  let workload n =
    let suite = disjoint_suite n in
    let names =
      Array.init n (fun i ->
          Array.map
            (fun x -> Name.v (Printf.sprintf "%s%d" x i))
            [| "a"; "b"; "go" |])
    in
    let stream =
      Array.init
        (120_000 / (3 * n) * 3 * n)
        (fun j ->
          { Trace.name = names.((j / 3) mod n).(j mod 3); time = j / 3 })
    in
    (n, suite, stream)
  in
  let hub ?metrics ?trace tap suite =
    let hub = Hub.create ?metrics ?trace tap in
    List.iter
      (fun (e : Suite.entry) -> ignore (Hub.add ~name:e.label hub e.pattern))
      suite;
    fun () -> Hub.all_passed hub
  in
  (* every checker subscribes to every name of the suite *)
  let broadcast tap suite =
    let names =
      List.fold_left
        (fun acc (e : Suite.entry) -> Name.Set.union acc (Pattern.alpha e.pattern))
        Name.Set.empty suite
    in
    let checkers =
      List.map
        (fun (e : Suite.entry) ->
          let c = Checker.make (Backend.direct e.pattern) in
          Name.Set.iter
            (fun name ->
              Tap.subscribe_name tap name (fun time ->
                  Checker.deliver c { Trace.name; time }))
            names;
          c)
        suite
    in
    fun () -> List.for_all Checker.passed checkers
  in
  let flat_engine tap suite =
    let hub = Suite.attach_hub tap suite in
    fun () -> Hub.all_passed hub
  in
  (* [host tap suite] sets a hosting up and returns its all-passed check *)
  let hosted host (_, suite, stream) () =
    let tap = Tap.create ~record:false (Kernel.create ()) in
    let passed = host tap suite in
    fun () ->
      Array.iter (fun (e : Trace.event) -> Tap.emit_name tap e.name) stream;
      assert (passed ())
  in
  let ((_, suite16, stream16) as w16) = workload layered in
  let bytes = Codec.encode_exn (Array.to_list stream16) in
  (* [emit decoder] admits the decoder's (stream id, time) pairs *)
  let decode ~emit =
    let decoder = Codec.Decoder.create () in
    let emit = emit (Codec.Decoder.name decoder) in
    let chunk = 65_536 and len = String.length bytes in
    let rec go off =
      if off < len then begin
        let l = min chunk (len - off) in
        Result.iter_error failwith
          (Codec.Decoder.feed_ids decoder ~off ~len:l bytes ~emit);
        go (off + l)
      end
    in
    go 0;
    Result.iter_error failwith (Codec.Decoder.finish decoder);
    assert (Codec.Decoder.events decoder = Array.length stream16)
  in
  let last_registry = ref Metrics.noop and last_ring = ref Ring.noop in
  let layers =
    [
      ( "hub_metrics",
        fun () ->
          last_registry := Metrics.create ();
          hosted (hub ~metrics:!last_registry) w16 () );
      ( "hub_trace",
        fun () ->
          last_ring := Ring.create ();
          hosted (hub ~trace:!last_ring) w16 () );
      ( "decode_session",
        fun () ->
          let session = Session.create suite16 in
          fun () ->
            decode ~emit:(Session.wire session);
            ignore (Session.finalize session);
            assert (Session.all_passed session) );
      ("decode_only", fun () () -> decode ~emit:(fun _ _ _ -> ()));
    ]
  in
  (* in-round order: the hub last among the hostings, then its layers
     with the overhead variants first, so that the runs each bound
     compares are close in time *)
  let hostings =
    [
      ("broadcast_direct", broadcast);
      ("flat_engine", flat_engine);
      ("hub_per_entry", hub ?metrics:None ?trace:None);
    ]
  in
  let workloads =
    List.map (fun n -> if n = layered then w16 else workload n) [ 1; 4; 16; 64 ]
  in
  let timings =
    measure ~rounds
      (List.concat_map
         (fun ((n, _, _) as w) ->
           List.map (fun (v, host) -> ((n, v), hosted host w)) hostings
           @ if n = layered then List.map (fun (v, f) -> ((n, v), f)) layers
             else [])
         workloads)
  in
  (* conservation on the last live registry and ring *)
  let dispatched =
    Metrics.read_counter !last_registry ~name:"loseq_events_dispatched_total"
      ()
  in
  assert (dispatched = Some (Array.length stream16));
  assert (Ring.total !last_ring > 0);
  (* [ratio (n, v) (n', v')]: the median over rounds of v's time over
     v''s in the same round, which cancels drift common to a round *)
  let samples n v = (List.assoc (n, v) timings).samples in
  let ratio (n, v) (n', v') =
    (timing_of (Array.map2 ( /. ) (samples n v) (samples n' v'))).median
  in
  let events_per_s (_, _, stream) t =
    float_of_int (Array.length stream) /. t.median
  in
  Format.printf "%-8s | %8s | %13s | %13s | %13s@." "checkers" "events"
    "broadcast" "hub per entry" "flat engine";
  Format.printf "%-8s | %8s | %13s | %13s | %13s@." "" "" "events/s"
    "events/s" "events/s";
  List.iter
    (fun ((n, _, stream) as w) ->
      Format.printf "%-8d | %8d" n (Array.length stream);
      List.iter
        (fun v ->
          Format.printf " | %13.3e"
            (events_per_s w (List.assoc (n, v) timings)))
        [ "broadcast_direct"; "hub_per_entry"; "flat_engine" ];
      Format.printf "@.")
    workloads;
  let hub16 = (layered, "hub_per_entry") in
  Format.printf "@.%d checkers, %d events, %d LSQB bytes:@." layered
    (Array.length stream16) (String.length bytes);
  Format.printf "%-16s | %27s | %8s@." "layer" "ms [q1, q3]" "vs hub";
  List.iter
    (fun v ->
      Format.printf "%-16s | %27s | %7.3fx@." v
        (show_timing (List.assoc (layered, v) timings))
        (ratio (layered, v) hub16))
    ("hub_per_entry" :: List.map fst layers);
  let e2e = ratio (layered, "decode_session") hub16 in
  let overhead v = (ratio (layered, v) hub16 -. 1.) *. 100. in
  let metrics_pct = overhead "hub_metrics"
  and trace_pct = overhead "hub_trace" in
  let speedup n = ratio (n, "broadcast_direct") (n, "hub_per_entry") in
  let bounds =
    [
      ("e2e_vs_hub", fixed e2e);
      ("e2e_within_2x_hub", Json.Bool (e2e <= 2.0));
      ("metrics_overhead_pct", fixed metrics_pct);
      ("metrics_within_5pct", Json.Bool (metrics_pct <= 5.0));
      ("trace_overhead_pct", fixed trace_pct);
      ("trace_within_5pct", Json.Bool (trace_pct <= 5.0));
      ("hub_vs_broadcast_at_16", fixed (speedup 16));
      ("hub_vs_broadcast_at_64", fixed (speedup 64));
      ( "hub_5x_broadcast_at_16_plus",
        Json.Bool (speedup 16 >= 5.0 && speedup 64 >= 5.0) );
    ]
  in
  Format.printf "@.bounds (median per-round ratios):@.";
  List.iter
    (fun (k, v) ->
      match v with
      | Json.Float x -> Format.printf "  %-28s %.3f@." k x
      | v -> Format.printf "  %-28s %s@." k (Json.to_string v))
    bounds;
  let render = render_records () in
  let row ((n, _, stream) as w) =
    Json.Obj
      (("checkers", Json.Int n)
      :: ("events", Json.Int (Array.length stream))
      :: List.filter_map
           (fun ((n', v), t) ->
             if n' <> n then None
             else
               Some
                 ( v,
                   Json.Obj
                     (timing_json t
                     @ [
                         ( "events_per_s",
                           Json.Int (Float.to_int (events_per_s w t)) );
                       ]) ))
           timings)
  in
  write_artifact ~backend:"flat" "dispatch"
    [
      ( "workload",
        Json.String
          "N disjoint {a_i, b_i} <<! go_i checkers, round-robin satisfying \
           stream, every hosting; decode, session, metrics and trace \
           layers at 16 checkers; render: serve's violation and \
           retracted records through its emitter to /dev/null" );
      ( "clock",
        Json.String
          "monotonic wall clock; 1 warm-up round, then interleaved rounds; \
           median and quartiles per variant, bounds on the median \
           per-round ratio" );
      ("rounds", Json.Int rounds);
      ("stream_bytes_at_16", Json.Int (String.length bytes));
      ("events_dispatched_total", Json.Int (Option.get dispatched));
      ("trace_records_emitted", Json.Int (Ring.total !last_ring));
      ("trace_records_dropped", Json.Int (Ring.dropped !last_ring));
      ("rows", Json.List (List.map row workloads));
      ("render", render);
      ("bounds", Json.Obj bounds);
    ]

(* ---- Section 3e: race analysis ----------------------------------------- *)

(* Cold timings, for the analysis sections: the memo tables would
   answer every round after the first for free. *)
let cold f () =
  Loseq_analysis.Memo.reset ();
  f

let load_suite path =
  match Loseq_verif.Suite.load path with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "%a" Loseq_verif.Suite.pp_error e)

(* Cost of the static commutation analysis and the suite lateness-
   robustness certificate on the case-study contract: per-entry
   pairwise commutation (reachable-state exploration + partition
   refinement + witness concretization) and the combined certificate,
   at the default budget and at the 20000-state budget [serve --ooo]
   certifies its suite with. *)
let race_analysis () =
  section
    "Race analysis: pairwise commutation + lateness certificate (ipu.suite)";
  let open Loseq_verif in
  let open Loseq_analysis in
  let suite_path = example "examples/specs/ipu.suite" in
  let suite = load_suite suite_path in
  let labeled = Suite.entries_of suite in
  let rounds = 3 and serve_budget = 20_000 in
  let timings =
    measure ~rounds
      (List.map
         (fun (label, p) ->
           (`Entry label, cold (fun () -> ignore (Commute.analyze p))))
         labeled
      @ List.map
          (fun budget ->
            ( `Certificate budget,
              cold (fun () -> ignore (Robust.certificate ?budget labeled)) ))
          [ None; Some serve_budget ])
  in
  Format.printf "%-22s | %27s | %5s | %9s | %7s@." "entry"
    "ms [q1, q3]" "races" "commuting" "decided";
  let entries =
    List.map
      (fun (label, p) ->
        let r = Commute.analyze p and t = List.assoc (`Entry label) timings in
        Format.printf "%-22s | %27s | %5d | %9d | %7b@." label (show_timing t)
          (List.length r.Commute.races)
          (List.length r.Commute.commuting)
          r.Commute.complete;
        Json.Obj
          ([ ("label", Json.String label) ]
          @ timing_json t
          @ [
              ("races", Json.Int (List.length r.Commute.races));
              ("commuting", Json.Int (List.length r.Commute.commuting));
              ("decided", Json.Bool r.Commute.complete);
            ]))
      labeled
  in
  let cert_row ?budget () =
    let cert = Robust.certificate ?budget labeled
    and t = List.assoc (`Certificate budget) timings in
    Format.printf "suite certificate%s: lateness bound %s, decided %b (%s ms)@."
      (match budget with
      | Some b -> Printf.sprintf " at budget %d" b
      | None -> "")
      (Robust.bound_to_string cert.Robust.bound)
      cert.Robust.decided (show_timing t);
    timing_json t
    @ [
        ("bound", Json.String (Robust.bound_to_string cert.Robust.bound));
        ("decided", Json.Bool cert.Robust.decided);
      ]
  in
  Format.printf "@.";
  let cert = cert_row () in
  let serve_cert = cert_row ~budget:serve_budget () in
  write_artifact ~backend:"analysis" "races"
    [
      ("suite", Json.String suite_path);
      ("rounds", Json.Int rounds);
      ("entries", Json.List entries);
      ("certificate", Json.Obj cert);
      ( "serve_certificate",
        Json.Obj (("budget", Json.Int serve_budget) :: serve_cert) );
    ]

(* ---- Section 3f: mutation gate ----------------------------------------- *)

(* Cost and outcome of the mutation quality gate on the case-study
   contract: generate every first-order mutant, kill each by static
   findings, exact product equivalence or differential replay, and
   record the per-tier attribution the CI gate consumes. *)
let mutation_gate () =
  section "Mutation analysis: three-tier kill pipeline (ipu.suite)";
  let open Loseq_analysis in
  let suite_path = example "examples/specs/ipu.suite" in
  let suite = Loseq_verif.Suite.entries_of (load_suite suite_path) in
  let rounds = 3 and last = ref None in
  let t =
    List.assoc ()
      (measure ~rounds
         [ ((), cold (fun () -> last := Some (Mutate.run suite))) ])
  in
  let s = Option.get !last in
  let killed =
    s.Mutate.killed_static + s.Mutate.killed_equivalence
    + s.Mutate.killed_differential
  in
  Format.printf
    "%d mutants in %s ms: %d killed (static %d, equivalence %d, \
     differential %d), %d stillborn, %d survived@."
    s.Mutate.generated (show_timing t) killed s.Mutate.killed_static
    s.Mutate.killed_equivalence s.Mutate.killed_differential
    s.Mutate.stillborn
    (List.length s.Mutate.survivors);
  Format.printf
    "kill rate %.1f%%; %d flat/compiled lockstep replays, %d divergences@."
    (100. *. s.Mutate.kill_rate)
    s.Mutate.cross_checked
    (List.length s.Mutate.divergences);
  write_artifact ~backend:"analysis" "mutation"
    ([ ("suite", Json.String suite_path); ("rounds", Json.Int rounds) ]
    @ timing_json t
    @ [
        ("mutants", Json.Int s.Mutate.generated);
        ("stillborn", Json.Int s.Mutate.stillborn);
        ( "killed",
          Json.Obj
            [
              ("static", Json.Int s.Mutate.killed_static);
              ("equivalence", Json.Int s.Mutate.killed_equivalence);
              ("differential", Json.Int s.Mutate.killed_differential);
            ] );
        ( "survivors",
          Json.List
            (List.map
               (fun (r : Mutate.result) -> Json.String r.mutant.id)
               s.Mutate.survivors) );
        ("kill_rate", fixed s.Mutate.kill_rate);
        ("meets_90pct", Json.Bool (s.Mutate.kill_rate >= 0.9));
        ("cross_checked", Json.Int s.Mutate.cross_checked);
        ("divergences", Json.Int (List.length s.Mutate.divergences));
      ])

(* ---- Section 4: Bechamel micro-benchmarks ------------------------------ *)

let bechamel_benches () =
  section "Bechamel: wall-clock cost of Monitor.step (one Test per Fig. 6 row)";
  let open Bechamel in
  let workloads =
    List.map
      (fun row ->
        let p = pat row.source in
        let rng = Random.State.make [| 0xcafe |] in
        let trace =
          Array.of_list (Generate.valid ~rounds:50 ~max_run:4 rng p)
        in
        (row, p, trace))
      fig6_rows
  in
  let make_test (row, p, trace) =
    let n = Array.length trace in
    Test.make ~name:row.label
      (Staged.stage (fun () ->
           let monitor = Monitor.create p in
           for i = 0 to n - 1 do
             ignore (Monitor.step monitor trace.(i))
           done))
  in
  (* The compiled monitor's intended usage is compile-once / reset per
     run, so its setup cost is excluded (the reference monitor has no
     reset and is re-created, which is its usage). *)
  let make_compiled_test (row, p, trace) =
    let n = Array.length trace in
    let monitor = Compiled.compile p in
    Test.make ~name:(row.label ^ " [compiled]")
      (Staged.stage (fun () ->
           Compiled.reset monitor;
           for i = 0 to n - 1 do
             ignore (Compiled.step monitor trace.(i))
           done))
  in
  let tests =
    List.map make_test workloads @ List.map make_compiled_test workloads
  in
  let grouped = Test.make_grouped ~name:"fig6" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Format.printf "%-40s | %8s | %12s | %9s | %6s@." "configuration" "events"
    "ns/workload" "ns/event" "r^2";
  let print_row label events result =
    let estimate, per_event =
      match Analyze.OLS.estimates result with
      | Some [ e ] ->
          (Printf.sprintf "%.0f" e,
           Printf.sprintf "%.1f" (e /. float_of_int events))
      | Some _ | None -> ("n/a", "n/a")
    in
    let r2 =
      match Analyze.OLS.r_square result with
      | Some r -> Printf.sprintf "%.3f" r
      | None -> "n/a"
    in
    Format.printf "%-40s | %8d | %12s | %9s | %6s@." label events estimate
      per_event r2
  in
  List.iter
    (fun (row, _, trace) ->
      let events = Array.length trace in
      print_row row.label events
        (Hashtbl.find results ("fig6/" ^ row.label));
      print_row (row.label ^ " [compiled]") events
        (Hashtbl.find results ("fig6/" ^ row.label ^ " [compiled]")))
    workloads

(* ---- Section 3g: speculative verdict latency --------------------------- *)

(* The acceptance claim of the ooo engine: on a disordered stream the
   buffered path cannot report a verdict until the watermark passes it
   (a lag that grows with the lateness bound K), while the speculative
   engine reports at the deciding event's arrival and the certificate
   fast path keeps repair free on a fully certified workload.  We
   measure verdict latency in arrival indices — how many events after
   the deciding one arrives is the verdict first reported — for
   K in {2, 8, 32}, and the wall time of each hosting run. *)
let ooo_latency () =
  section "Speculative vs buffered verdict latency (lateness sweep)";
  let open Loseq_ingest in
  let open Loseq_verif in
  let module Engine = Loseq_ooo.Engine in
  let nchk = 16 and rounds = 60 in
  let half = nchk / 2 in
  let suite = disjoint_suite nchk in
  (* Checkers half..nchk-1 violate once each, staggered across the run:
     their b_i is omitted in round viol_round(i), so the deciding event
     is that round's go_i. *)
  let viol_round i =
    if i < half then -1 else (i - half) * rounds / (half + 2)
  in
  let ev t nm = { Trace.time = t; name = Name.v nm } in
  let chronological =
    let t = ref (-1) in
    let next () = incr t; !t in
    List.concat
      (List.concat
         (List.init rounds (fun r ->
              List.init nchk (fun i ->
                  let a = ev (next ()) (Printf.sprintf "a%d" i) in
                  let b =
                    if r = viol_round i then []
                    else [ ev (next ()) (Printf.sprintf "b%d" i) ]
                  in
                  let go = ev (next ()) (Printf.sprintf "go%d" i) in
                  (a :: b) @ [ go ]))))
  in
  (* The arrival stream: every premise pair swapped — b_i arrives first,
     a_i is one tick late.  The pair is certified commuting, so the
     speculative engine should absorb every swap in place. *)
  let scrambled =
    let rec swap = function
      | (a : Trace.event) :: b :: rest
        when a.Trace.time + 1 = b.Trace.time
             && (Name.to_string a.Trace.name).[0] = 'a'
             && (Name.to_string b.Trace.name).[0] = 'b' ->
          b :: a :: swap rest
      | e :: rest -> e :: swap rest
      | [] -> []
    in
    swap chronological
  in
  let scrambled_arr = Array.of_list scrambled in
  let violating = List.filter (fun i -> viol_round i >= 0) (List.init nchk Fun.id) in
  (* The deciding event of checker i is the go_i of its violating round:
     find its timestamp by counting go_i occurrences along the
     chronological trace, then look the arrival index up. *)
  let deciding_time = Hashtbl.create 8 in
  let go_count = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let nm = Name.to_string e.Trace.name in
      if String.length nm > 2 && String.sub nm 0 2 = "go" then begin
        let i = int_of_string (String.sub nm 2 (String.length nm - 2)) in
        let r = Option.value ~default:0 (Hashtbl.find_opt go_count i) in
        Hashtbl.replace go_count i (r + 1);
        if r = viol_round i then Hashtbl.replace deciding_time i e.Trace.time
      end)
    chronological;
  let arrival_idx_of_time = Hashtbl.create 64 in
  Array.iteri
    (fun idx (e : Trace.event) ->
      Hashtbl.replace arrival_idx_of_time e.Trace.time idx)
    scrambled_arr;
  let idx_of_checker i =
    Hashtbl.find arrival_idx_of_time (Hashtbl.find deciding_time i)
  in
  let label_index lbl = Scanf.sscanf lbl "p%d" Fun.id in
  let median xs =
    match List.sort compare xs with
    | [] -> 0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let expected = Suite.check_trace suite chronological in
  (* buffered: first report happens when the reorder buffer delivers
     the deciding event — the watermark lag. *)
  let buffered k =
    let report_idx = Hashtbl.create 8 in
    let session = Session.create ~lateness:k suite in
    let idx = ref 0 in
    Session.on_violation session (fun ~name _ ->
        let i = label_index name in
        if not (Hashtbl.mem report_idx i) then Hashtbl.replace report_idx i !idx);
    Array.iteri
      (fun j e ->
        idx := j;
        Session.offer_force session e)
      scrambled_arr;
    idx := Array.length scrambled_arr;
    let report = Session.finalize session in
    assert (List.map (fun (l, v) -> (l, Backend.passed v)) (Report.summary report) = expected);
    median
      (List.map
         (fun i -> Hashtbl.find report_idx i - idx_of_checker i)
         violating)
  in
  (* speculative: first (speculative) report and settlement. *)
  let speculative k =
    let spec_idx = Hashtbl.create 8 and settle_idx = Hashtbl.create 8 in
    let idx = ref 0 in
    let eng =
      Engine.create
        ~notice:(fun n ->
          match n with
          | Engine.Violation { label; _ } ->
              let i = label_index label in
              if not (Hashtbl.mem spec_idx i) then Hashtbl.replace spec_idx i !idx
          | Engine.Settled { label; _ } ->
              let i = label_index label in
              if not (Hashtbl.mem settle_idx i) then
                Hashtbl.replace settle_idx i !idx
          | Engine.Retracted _ -> ())
        ~lateness:k
        (Suite.entries_of suite)
    in
    Array.iteri
      (fun j e ->
        idx := j;
        ignore (Engine.offer eng e))
      scrambled_arr;
    idx := Array.length scrambled_arr;
    Engine.finalize eng;
    assert (
      List.map (fun (l, v) -> (l, Backend.passed v)) (Engine.report eng)
      = expected);
    let spec_lat =
      List.map (fun i -> Hashtbl.find spec_idx i - idx_of_checker i) violating
    in
    let settle_lat =
      List.map
        (fun i ->
          match Hashtbl.find_opt settle_idx i with
          | Some s -> s - idx_of_checker i
          | None -> Array.length scrambled_arr - idx_of_checker i)
        violating
    in
    (median spec_lat, median settle_lat, Engine.stats eng)
  in
  let ks = [ 2; 8; 32 ] in
  let timings =
    measure
      (List.concat_map
         (fun k ->
           [
             ((k, `Buffered), fun () () -> ignore (buffered k));
             ((k, `Speculative), fun () () -> ignore (speculative k));
           ])
         ks)
  in
  let results = List.map (fun k -> (k, buffered k, speculative k)) ks in
  Format.printf "%-8s | %8s | %11s | %7s | %12s | %9s | %11s | %11s@."
    "lateness" "buffered" "speculative" "settled" "commute hits" "rollbacks"
    "buffered ms" "spec. ms";
  Format.printf "%-8s | %8s | %11s | %7s |@." "" "median" "median" "median";
  List.iter
    (fun (k, b, (s, st, stats)) ->
      Format.printf "%-8d | %8d | %11d | %7d | %12d | %9d | %11.3f | %11.3f@."
        k b s st stats.Engine.commute_hits stats.Engine.rollbacks
        ((List.assoc (k, `Buffered) timings).median *. 1e3)
        ((List.assoc (k, `Speculative) timings).median *. 1e3))
    results;
  let _, b8, (s8, _, stats8) = List.find (fun (k, _, _) -> k = 8) results in
  Format.printf
    "@.%d checkers, %d violating, %d events; every premise pair swapped \
     (certified@.commuting): the speculative engine reports at arrival while \
     the buffered path@.waits out the watermark.@."
    nchk (List.length violating)
    (Array.length scrambled_arr);
  write_artifact ~backend:"flat" "ooo"
    [
      ( "workload",
        Json.String
          (Printf.sprintf
             "%d disjoint {a_i, b_i} <<! go_i checkers, %d violating \
              (staggered), every premise pair swapped in arrival order"
             nchk (List.length violating)) );
      ("events", Json.Int (Array.length scrambled_arr));
      ("late_events_per_run", Json.Int stats8.Engine.late);
      ( "sweep",
        Json.List
          (List.map
             (fun (k, b, (s, st, stats)) ->
               let timed v =
                 Json.Obj (timing_json (List.assoc (k, v) timings))
               in
               Json.Obj
                 [
                   ("lateness", Json.Int k);
                   ("buffered_median", Json.Int b);
                   ("speculative_median", Json.Int s);
                   ("settled_median", Json.Int st);
                   ("commute_hits", Json.Int stats.Engine.commute_hits);
                   ("rollbacks", Json.Int stats.Engine.rollbacks);
                   ("replayed", Json.Int stats.Engine.replayed);
                   ("dropped_late", Json.Int stats.Engine.dropped_late);
                   ("buffered_run", timed `Buffered);
                   ("speculative_run", timed `Speculative);
                 ])
             results) );
      ( "acceptance",
        Json.Obj
          [
            ("median_latency_below_buffered_at_k8", Json.Bool (s8 < b8));
            ( "commute_hits_nonzero",
              Json.Bool (stats8.Engine.commute_hits > 0) );
            ("zero_rollbacks", Json.Bool (stats8.Engine.rollbacks = 0));
          ] );
    ]

(* ---- Section 3h: shard planning ---------------------------------------- *)

(* Cost and quality of the static shard-plan analysis on the case-study
   contract: interference-graph construction (per-entry commutation +
   cross-checker products), the balance of the greedy partition at
   N = 4, and the sequential sharded replay against the unsharded
   verdicts on the recorded trace. *)
let shard_planning () =
  section "Shard planning: interference graph + balanced partition (ipu.suite)";
  let open Loseq_analysis in
  let suite_path = example "examples/specs/ipu.suite"
  and trace_path = example "examples/traces/ipu.csv" in
  let suite = load_suite suite_path in
  let labeled = Loseq_verif.Suite.entries_of suite in
  let n_shards = 4 and plan_rounds = 3 and last = ref None in
  let plan_t =
    List.assoc ()
      (measure ~rounds:plan_rounds
         [
           ( (),
             cold (fun () ->
                 last := Some (Shard.analyze ~shards:n_shards labeled)) );
         ])
  in
  let plan = Option.get !last in
  (* the memo tables hold what the last cold round explored *)
  let explorations = Memo.explorations_performed () in
  Format.printf "%a@." Shard.pp plan;
  Format.printf "planned in %s ms (%d explorations)@." (show_timing plan_t)
    explorations;
  let tr =
    match Loseq_core.Trace_io.load_csv trace_path with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  let shards = Array.to_list plan.Shard.shards in
  let unsharded () = Loseq_verif.Suite.check_trace suite tr
  and sharded () = Loseq_verif.Sharded.run ~plan:shards suite tr in
  let replay =
    measure
      [
        (`Unsharded, fun () () -> ignore (unsharded ()));
        (`Sharded, fun () () -> ignore (sharded ()));
      ]
  in
  let agrees = sharded () = unsharded () in
  Format.printf
    "replay on %s: unsharded %s ms, sharded %s ms, verdicts agree %b@."
    trace_path
    (show_timing (List.assoc `Unsharded replay))
    (show_timing (List.assoc `Sharded replay))
    agrees;
  let balanced = plan.Shard.balance <= 1.5
  and timed v = Json.Obj (timing_json (List.assoc v replay)) in
  write_artifact ~backend:"analysis" "shard"
    [
      ("suite", Json.String suite_path);
      ("trace", Json.String trace_path);
      ("shards", Json.Int n_shards);
      ( "plan",
        Json.Obj (("rounds", Json.Int plan_rounds) :: timing_json plan_t) );
      ("explorations", Json.Int explorations);
      ( "per_shard",
        Json.List
          (List.mapi
             (fun s members ->
               Json.Obj
                 [
                   ("shard", Json.Int s);
                   ("cost", Json.Int plan.Shard.shard_costs.(s));
                   ( "checkers",
                     Json.List
                       (List.map
                          (fun ck ->
                            Json.String (fst plan.Shard.entries.(ck)))
                          members) );
                 ])
             shards) );
      ("balance", fixed plan.Shard.balance);
      ("certified", Json.Bool plan.Shard.certified);
      ( "replay",
        Json.Obj
          [
            ("unsharded", timed `Unsharded);
            ("sharded", timed `Sharded);
            ("verdicts_agree", Json.Bool agrees);
          ] );
      ( "acceptance",
        Json.Obj
          [
            ("balanced_1_5x", Json.Bool balanced);
            ("certified", Json.Bool plan.Shard.certified);
            ("verdicts_agree", Json.Bool agrees);
          ] );
    ]

(* Sections are addressable from the command line so CI can run just
   one: `bench/main.exe dispatch`.  No arguments runs everything. *)
let sections_by_name =
  [
    ("fig6", figure6);
    ("sweep-range", sweep_range_width);
    ("sweep-fragment", sweep_fragment_width);
    ("sweep-chain", sweep_chain_length);
    ("empirical-psl", empirical_viapsl);
    ("automata", automaton_sizes);
    ("ablation", ablation_oracle);
    ("case-study", case_study);
    ("dispatch", dispatch);
    ("races", race_analysis);
    ("mutation", mutation_gate);
    ("ooo", ooo_latency);
    ("shard", shard_planning);
    ("bechamel", bechamel_benches);
  ]


let usage () =
  Printf.eprintf "usage: bench/main.exe [SECTION]...\n\n";
  Printf.eprintf
    "Runs the named benchmark sections in order (all of them when none \
     are\ngiven).  Available sections:\n";
  List.iter (fun (nm, _) -> Printf.eprintf "  %s\n" nm) sections_by_name

let () =
  Format.printf
    "loseq benchmark harness - reproduces the evaluation of:@.  Romenska & \
     Maraninchi, \"Efficient Monitoring of Loose-Ordering@.  Properties for \
     SystemC/TLM\", DATE 2016@.";
  let chosen =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map snd sections_by_name
    | requested ->
        List.map
          (fun nm ->
            match List.assoc_opt nm sections_by_name with
            | Some f -> f
            | None ->
                Printf.eprintf "unknown bench section %S\n\n" nm;
                usage ();
                exit 2)
          requested
  in
  List.iter (fun f -> f ()) chosen;
  Format.printf "@.done.@."
