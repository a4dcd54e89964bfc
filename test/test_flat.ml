(* The whole-suite flat engine: deterministic pins for the packed
   memory layout, counter-slot overflow, deadline firing order through
   the engine-direct hosted path, and the state-blob codec (roundtrip,
   version rejection, wrong-suite rejection, truncation, words no
   engine writes), plus properties for checker copies between two
   engines of one suite (the speculative engine's rollback from its
   frontier), for the opened-fragment cache and for table-patched
   monitors, the last two against the exact [Machine].
   Cross-backend verdict agreement on random inputs lives in
   test_backend. *)

open Loseq_core
open Loseq_analysis
open Loseq_sim
open Loseq_verif
open Loseq_testutil

let ev t nm = Trace.event ~time:t (name nm)

let demo_entries () =
  [
    ("c0", pat "{a, b} <<! go");
    ("c1", pat "start => read[2,3] < irq within 50");
  ]

(* ---- packing layout ---------------------------------------------------- *)

(* The slab is [ctrl | states | counters] per checker, checkers
   back-to-back.  c0 ({a,b} <<! go) has 2 recognizers, c1 has 3, so
   with 13 control slots the bases and per-recognizer slots are fully
   determined.  These pins freeze the layout: a change here is a blob
   format break and must bump Flat.blob_version. *)
let test_layout_pins () =
  let eng = Flat.compile (demo_entries ()) in
  let l = Flat.layout eng in
  Alcotest.(check int) "ctrl slots" 13 Flat.ctrl_slots;
  Alcotest.(check int) "total slots" 36 l.Flat.total_slots;
  Alcotest.(check (array int)) "checker bases" [| 0; 17 |] l.Flat.checker_base;
  Alcotest.(check (array int))
    "state slots" [| 13; 14; 30; 31; 32 |] l.Flat.state_slot;
  Alcotest.(check (array int))
    "counter slots" [| 15; 16; 33; 34; 35 |] l.Flat.counter_slot;
  Alcotest.(check (list string))
    "interning order" [ "a"; "b"; "go"; "irq"; "read"; "start" ]
    (Array.to_list (Array.map Name.to_string (Flat.names eng)))

let test_dispatch_table () =
  let eng = Flat.compile (demo_entries ()) in
  Alcotest.(check int) "size" 2 (Flat.size eng);
  Alcotest.(check string) "label 0" "c0" (Flat.label eng 0);
  Alcotest.(check string) "label 1" "c1" (Flat.label eng 1);
  (* every interned name resolves; locals only where the checker listens *)
  Array.iter
    (fun nm ->
      Alcotest.(check bool) "gid" true (Flat.gid_of_name eng nm <> None))
    (Flat.names eng);
  Alcotest.(check bool) "c0 hears a" true
    (Flat.local_of_name eng 0 (name "a") >= 0);
  Alcotest.(check int) "c0 does not hear irq" (-1)
    (Flat.local_of_name eng 0 (name "irq"));
  Alcotest.(check bool) "c1 hears irq" true
    (Flat.local_of_name eng 1 (name "irq") >= 0)

(* [copy k] of the example catalog, its names suffixed with [k mod 2]:
   copies 0 and 2 (and 1 and 3) share every name, so the interning
   spans several checkers per name. *)
let catalog_source () =
  let path =
    List.find Sys.file_exists
      [ "../examples/specs/catalog.suite"; "examples/specs/catalog.suite" ]
  in
  match Suite.load path with
  | Ok s -> s
  | Error e -> Alcotest.failf "%a" Suite.pp_error e

let catalog_copies n =
  let source = catalog_source () in
  (* rename identifier tokens that are alphabet names *)
  let rename suffix (e : Suite.entry) =
    let alpha = Pattern.alpha e.pattern in
    let text = Pattern.to_string e.pattern in
    let buf = Buffer.create (String.length text) in
    let tok = Buffer.create 16 in
    let flush () =
      let t = Buffer.contents tok in
      Buffer.add_string buf
        (if t <> "" && Name.Set.mem (name t) alpha then t ^ suffix else t);
      Buffer.clear tok
    in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char tok c
        | _ ->
            flush ();
            Buffer.add_char buf c)
      text;
    flush ();
    pat (Buffer.contents buf)
  in
  List.concat
    (List.init n (fun k ->
         List.map
           (fun (e : Suite.entry) ->
             ( Printf.sprintf "%s_%d" e.label k,
               rename (Printf.sprintf "_%d" (k mod 2)) e ))
           source))

(* The checker-local id of a name is its position in the checker's
   sorted alphabet, and -1 for every name outside it — interned
   elsewhere in the suite or foreign to it. *)
let test_local_of_name_multi_copy () =
  let eng = Flat.compile (catalog_copies 4) in
  Alcotest.(check int) "checkers" 32 (Flat.size eng);
  let foreign = [ name "nope"; name "grant_9"; name "grant" ] in
  for ck = 0 to Flat.size eng - 1 do
    let locals = Array.of_list (Name.Set.elements (Flat.alphabet eng ck)) in
    let expected nm =
      let rec find i =
        if i = Array.length locals then -1
        else if Name.equal locals.(i) nm then i
        else find (i + 1)
      in
      find 0
    in
    List.iter
      (fun nm ->
        Alcotest.(check int)
          (Printf.sprintf "%s / %s" (Flat.label eng ck) (Name.to_string nm))
          (expected nm)
          (Flat.local_of_name eng ck nm))
      (Array.to_list (Flat.names eng) @ foreign)
  done

(* step_name (CSR row), step_event (per-checker resolve) and
   step_checker must drive the same machine to the same verdicts. *)
let test_dispatch_paths_agree () =
  let trace =
    [ ev 0 "a"; ev 1 "b"; ev 2 "go"; ev 3 "start"; ev 4 "read"; ev 5 "read" ]
  in
  let by_name = Flat.compile (demo_entries ()) in
  List.iter
    (fun (e : Trace.event) ->
      match Flat.gid_of_name by_name e.name with
      | None -> ()
      | Some gid -> Flat.step_name by_name ~gid ~time:e.time)
    trace;
  let by_event = Flat.compile (demo_entries ()) in
  List.iter (fun e -> Flat.step_event by_event e) trace;
  for ck = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "checker %d verdict" ck)
      (Flat.verdict_code by_name ck)
      (Flat.verdict_code by_event ck);
    Alcotest.(check int)
      (Printf.sprintf "checker %d index" ck)
      (Flat.index by_name ck) (Flat.index by_event ck)
  done

(* ---- counter slots ----------------------------------------------------- *)

let test_counter_overflow () =
  let eng = Flat.compile [ ("p", pat "a[2,3] <<! i") ] in
  let feed t = Flat.step_event eng (ev t "a") in
  feed 0;
  feed 1;
  feed 2;
  Alcotest.(check int) "3 repetitions still running" 0 (Flat.verdict_code eng 0);
  feed 3;
  Alcotest.(check int) "4th overflows" 2 (Flat.verdict_code eng 0);
  match Flat.verdict eng 0 with
  | Compiled.Violated { reason = Diag.Overflow r; time; index } ->
      Alcotest.(check string) "range name" "a" (Name.to_string r.Pattern.name);
      Alcotest.(check int) "range hi" 3 r.Pattern.hi;
      Alcotest.(check int) "at time" 3 time;
      Alcotest.(check int) "at index" 3 index
  | _ -> Alcotest.fail "expected overflow"

let test_counter_underflow () =
  let eng = Flat.compile [ ("p", pat "a[2,3] <<! i") ] in
  Flat.step_event eng (ev 0 "a");
  Flat.step_event eng (ev 1 "i");
  Alcotest.(check int) "1 repetition underflows at terminator" 2
    (Flat.verdict_code eng 0);
  match Flat.verdict eng 0 with
  | Compiled.Violated { reason = Diag.Underflow r; _ } ->
      Alcotest.(check int) "range lo" 2 r.Pattern.lo
  | _ -> Alcotest.fail "expected underflow"

(* ---- deadline wheel firing order --------------------------------------- *)

(* Two timed checkers armed at the same instant with different
   deadlines, nothing else ever happens: the hub's wheel (driven by
   the engine's deadline table) must fire them earliest first, each at
   its own deadline. *)
let test_deadline_firing_order () =
  let source = "fast: a => b within 10\nslow: c => d within 100\n" in
  let suite =
    match Suite.parse source with
    | Ok s -> s
    | Error e -> Alcotest.failf "suite: %a" Suite.pp_error e
  in
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let hub = Suite.attach_hub ~backend:Backend.flat_views tap suite in
  let eng = Option.get (Hub.engine hub) in
  let fired = ref [] in
  List.iter
    (fun c ->
      Checker.on_violation c (fun v ->
          fired := (Checker.name c, v.Diag.time) :: !fired))
    (Hub.checkers hub);
  Kernel.run ~until:(Time.ps 5) kernel;
  Tap.emit_name tap (name "a");
  Tap.emit_name tap (name "c");
  Alcotest.(check (option int)) "engine's next deadline" (Some 15)
    (Flat.next_deadline eng);
  Kernel.run ~until:(Time.ps 1_000) kernel;
  Alcotest.(check (list (pair string int)))
    "earliest deadline fires first, at its own deadline"
    [ ("fast", 15); ("slow", 105) ]
    (List.rev !fired)

(* ---- state blob -------------------------------------------------------- *)

let test_blob_roundtrip () =
  let eng = Flat.compile (demo_entries ()) in
  List.iter
    (fun e -> Flat.step_event eng e)
    [ ev 0 "a"; ev 2 "go"; ev 5 "start"; ev 6 "read" ];
  let blob = Flat.save_blob eng in
  let fresh = Flat.compile (demo_entries ()) in
  (match Flat.load_blob fresh blob with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  for ck = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "verdict %d" ck)
      (Flat.verdict_code eng ck)
      (Flat.verdict_code fresh ck);
    Alcotest.(check int)
      (Printf.sprintf "index %d" ck)
      (Flat.index eng ck) (Flat.index fresh ck)
  done;
  Alcotest.(check (option int)) "deadline carried"
    (Flat.next_deadline eng) (Flat.next_deadline fresh);
  (* the loaded engine keeps running identically *)
  Flat.step_event eng (ev 7 "read");
  Flat.step_event fresh (ev 7 "read");
  Alcotest.(check int) "post-load step agrees" (Flat.verdict_code eng 1)
    (Flat.verdict_code fresh 1)

let expect_error label result needle =
  match result with
  | Ok () -> Alcotest.failf "%s: blob accepted" label
  | Error msg ->
      let contains hay n =
        let nh = String.length hay and nn = String.length n in
        let rec at i = i + nn <= nh && (String.sub hay i nn = n || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" label msg needle)
        true (contains msg needle)

let test_blob_rejections () =
  let eng = Flat.compile (demo_entries ()) in
  let blob = Flat.save_blob eng in
  (* bad magic *)
  expect_error "magic"
    (Flat.load_blob eng ("XXXX" ^ String.sub blob 4 (String.length blob - 4)))
    "magic";
  (* bumped version byte *)
  let tampered = Bytes.of_string blob in
  Bytes.set tampered 4 (Char.chr (Char.code (Bytes.get tampered 4) + 1));
  expect_error "version"
    (Flat.load_blob eng (Bytes.to_string tampered))
    "version";
  (* a different suite's engine: slot count mismatch *)
  let other = Flat.compile [ ("p", pat "a << b") ] in
  expect_error "wrong suite" (Flat.load_blob other blob) "different suite";
  (* truncation *)
  expect_error "truncated"
    (Flat.load_blob eng (String.sub blob 0 (String.length blob - 1)))
    "truncated";
  (* and a truncated load must not have corrupted the engine *)
  match Flat.load_blob eng blob with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "pristine blob after failures: %s" msg

(* The slots of a blob, and a blob of slots (the zigzag LEB128 codec
   of [Flat.save_blob]). *)
let blob_slots blob =
  let pos = ref 8 in
  let varint () =
    let rec go u shift =
      let b = Char.code blob.[!pos] in
      incr pos;
      let u = u lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then (u lsr 1) lxor -(u land 1) else go u (shift + 7)
    in
    go 0 0
  in
  let n = varint () in
  Array.init n (fun _ -> varint ())

let slots_blob blob slots =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (String.sub blob 0 8);
  let put v =
    let rec go u =
      if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
        go (u lsr 7)
      end
    in
    go ((v lsl 1) lxor (v asr 62))
  in
  put (Array.length slots);
  Array.iter put slots;
  Buffer.contents buf

(* A blob of the right shape whose words no engine of the suite can
   hold is refused, naming the checker, and the engine is left as it
   was.  c1 starts at slot 17; its control words are at fixed offsets
   (verdict 1, reason 6, diagnostic recognizer 7, active 0, conclusion
   flag 4), its recognizer states at 13-15, and its recognizers are
   global 2-4. *)
let test_blob_unreachable_words () =
  let eng = Flat.compile (demo_entries ()) in
  Flat.step_event eng (ev 0 "start");
  let blob = Flat.save_blob eng in
  let slots = blob_slots blob in
  Alcotest.(check string) "codec roundtrip" blob (slots_blob blob slots);
  let tampered label writes needle =
    let s = Array.copy slots in
    List.iter (fun (off, v) -> s.(17 + off) <- v) writes;
    expect_error label (Flat.load_blob eng (slots_blob blob s)) needle;
    expect_error (label ^ ", checker named")
      (Flat.load_blob eng (slots_blob blob s))
      "checker 1 (\"c1\")"
  in
  tampered "recognizer 9999" [ (1, 2); (6, 2); (7, 9999) ] "recognizer 9999";
  tampered "another checker's recognizer" [ (1, 2); (6, 2); (7, 0) ]
    "recognizer 0";
  tampered "range reason, no recognizer" [ (1, 2); (6, 3); (7, -1) ]
    "range diagnostic";
  tampered "verdict code" [ (1, 3) ] "verdict code 3";
  tampered "reason code" [ (6, 10) ] "reason code 10";
  tampered "active fragment" [ (0, 3) ] "active fragment 3";
  tampered "conclusion flag" [ (4, 2) ] "conclusion flag 2";
  tampered "state code" [ (14, 5) ] "state code 5";
  Alcotest.(check string) "refusals leave the engine as it was" blob
    (Flat.save_blob eng);
  (* own recognizers with their own reasons are fine *)
  let s = Array.copy slots in
  List.iter (fun (off, v) -> s.(17 + off) <- v) [ (1, 2); (6, 2); (7, 3) ];
  (match Flat.load_blob eng (slots_blob blob s) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "own recognizer refused: %s" msg);
  Alcotest.(check string) "decoded as its own range" "FAIL"
    (match Flat.verdict eng 1 with Flat.Violated _ -> "FAIL" | _ -> "ok")

let test_reset () =
  let eng = Flat.compile [ ("p", pat "a <<! i") ] in
  Flat.step_event eng (ev 0 "i");
  Alcotest.(check int) "violated" 2 (Flat.verdict_code eng 0);
  Flat.reset eng;
  Alcotest.(check int) "running again" 0 (Flat.verdict_code eng 0);
  Flat.step_event eng (ev 1 "a");
  Flat.step_event eng (ev 2 "i");
  Alcotest.(check int) "clean rerun still running" 0 (Flat.verdict_code eng 0);
  Alcotest.(check int) "round counted" 1 (Flat.rounds_completed eng 0)

(* ---- recognizer touches ------------------------------------------------ *)

(* servebench's fanout shape, one group: checker j is
   {s<j> .. s<j+k-1>} <<! go over a sliding window of [width] names. *)
let fanout_entries ~width ~k =
  List.init width (fun j ->
      let names =
        List.init k (fun i -> Printf.sprintf "s%d" ((j + i) mod width))
      in
      ( Printf.sprintf "fan%d" j,
        pat ("{" ^ String.concat ", " names ^ "} <<! go") ))

(* [rounds] rounds, each sending every name once in a seeded order and
   closing with go: every property passes. *)
let fanout_trace ~width ~rounds ~seed =
  let rng = Random.State.make [| seed |] in
  let names = Array.init width (Printf.sprintf "s%d") in
  let round () =
    for i = width - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = names.(i) in
      names.(i) <- names.(j);
      names.(j) <- x
    done;
    Array.to_list names @ [ "go" ]
  in
  List.mapi ev (List.concat (List.init rounds (fun _ -> round ())))

(* A checker-round is 9 deliveries (8 names, then go) to a fragment of
   8 recognizers.  The first name opens the fragment and steps all 8;
   each of the other 7 steps only the counting recognizer and its own
   owner; go completes the fragment through all 8: 8 + 7 * 2 + 8 = 30
   touches per checker-round, where stepping the whole fragment on
   every delivery takes 72.  The engine-direct hub exports the same
   count. *)
let test_fanout_touches () =
  let width = 16 and k = 8 and rounds = 10 in
  let entries = fanout_entries ~width ~k in
  let trace = fanout_trace ~width ~rounds ~seed:5 in
  let eng = Flat.compile entries in
  List.iter (Flat.step_event eng) trace;
  for ck = 0 to width - 1 do
    Alcotest.(check int) "running" 0 (Flat.verdict_code eng ck);
    Alcotest.(check int) "rounds" rounds (Flat.rounds_completed eng ck);
    Alcotest.(check int) "deliveries" (rounds * (k + 1)) (Flat.index eng ck)
  done;
  let touches = width * rounds * 30 in
  Alcotest.(check int) "recognizer touches" touches
    (Flat.recognizer_steps eng);
  let metrics = Loseq_obs.Metrics.create () in
  let suite =
    List.mapi
      (fun i (label, pattern) -> { Suite.label; pattern; line = i + 1 })
      entries
  in
  let tap = Tap.create (Kernel.create ()) in
  ignore (Suite.attach_hub ~metrics ~backend:Backend.flat_views tap suite);
  List.iter (fun (e : Trace.event) -> Tap.emit_name tap e.name) trace;
  Alcotest.(check (option int)) "loseq_flat_recognizer_steps_total"
    (Some touches)
    (Loseq_obs.Metrics.read_counter metrics
       ~name:"loseq_flat_recognizer_steps_total" ())

(* ---- checker copies between engines ------------------------------------ *)

(* The checkers of [eng] whose compiled pattern is timed. *)
let timed_checkers eng =
  List.filter
    (fun ck ->
      match Flat.pattern eng ck with
      | Pattern.Timed _ -> true
      | Pattern.Antecedent _ -> false)
    (List.init (Flat.size eng) Fun.id)

(* A suite of one to three random entries, their traces merged in time
   order, and a cut point. *)
let gen_copy_case =
  QCheck2.Gen.(
    let* cases = list_size (int_range 1 3) gen_pattern_and_trace in
    let trace =
      List.stable_sort
        (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
        (List.concat_map snd cases)
    in
    let* cut = int_range 0 (List.length trace) in
    return (List.map fst cases, trace, cut))

let print_copy_case (ps, trace, cut) =
  Format.asprintf "@[<v>%a@,trace: %s@,cut: %d@]"
    (Format.pp_print_list Pattern.pp)
    ps (Trace.to_string trace) cut

(* Two engines of one suite: [src] steps a prefix, [eng] the whole
   trace.  Copying every checker from [src] into [eng] gives each the
   persisted state [src] holds, leaves [src] alone, hands every timed
   checker to the next deadline drain, and stepping the rest in both
   engines reaches the same states. *)
let prop_copy_exact (ps, trace, cut) =
  let entries = List.mapi (fun i p -> (Printf.sprintf "p%d" i, p)) ps in
  let src = Flat.compile entries and eng = Flat.compile entries in
  let n = Flat.size eng in
  let run e events =
    List.iter
      (fun (ev : Trace.event) ->
        Flat.check_time e ~now:ev.time;
        Flat.step_event e ev)
      events;
    Flat.finalize e ~now:(Trace.end_time trace + 200);
    Array.init n (Flat.persist_checker e)
  in
  let prefix = List.filteri (fun i _ -> i < cut) trace
  and rest = List.filteri (fun i _ -> i >= cut) trace in
  List.iter (Flat.step_event src) prefix;
  let at_copy = Array.init n (Flat.persist_checker src) in
  ignore (run eng trace);
  Flat.drain_deadlines eng ignore;
  for ck = 0 to n - 1 do
    Flat.copy_checker ~src eng ck
  done;
  let handed = ref [] in
  Flat.drain_deadlines eng (fun ck -> handed := ck :: !handed);
  if Array.init n (Flat.persist_checker eng) <> at_copy then
    QCheck2.Test.fail_report "copied state differs from the source"
  else if Array.init n (Flat.persist_checker src) <> at_copy then
    QCheck2.Test.fail_report "the copy changed the source"
  else if
    not
      (List.for_all (fun ck -> List.mem ck !handed) (timed_checkers eng))
  then QCheck2.Test.fail_report "a copied timed checker was not drained"
  else if run eng rest <> run src rest then
    QCheck2.Test.fail_report "stepping the rest diverged"
  else true

let test_copy_refuses_other_suite () =
  let src = Flat.compile [ ("p", pat "{a, b} <<! go") ]
  and eng = Flat.compile [ ("p", pat "a < b < c <<! go") ] in
  Alcotest.check_raises "layouts differ"
    (Invalid_argument "Flat.copy_checker: engines of different suites")
    (fun () -> Flat.copy_checker ~src eng 0)

(* ---- due floor ----------------------------------------------------------- *)

(* [fire_due] skips its sweep while [upto] is below the engine's due
   floor.  Against the sweep it replaced (every timed checker, every
   call, kept here as the reference), an engine must reach the same slab
   and notify the same checkers in the same order, whatever the mix of
   steps, firings at any [upto], copies from an engine that lags behind
   (the rollback's restore from the frontier, which can bring back an
   earlier armed deadline), resets and blob loads. *)
type floor_op = Step | Fire of int | Copy of int * int | Reset | Load of int

let sweep_due eng ~upto =
  List.iter
    (fun ck ->
      let dl = Flat.next_deadline_checker eng ck in
      if dl >= 0 && dl + 1 <= upto then
        Flat.check_time_checker eng ck ~now:(dl + 1))
    (timed_checkers eng)

let gen_floor_case =
  QCheck2.Gen.(
    let* cases =
      list_size (int_range 1 3)
        (let* p = frequency [ (3, gen_timed); (1, gen_antecedent) ] in
         let* trace = gen_trace_for p in
         return (p, trace))
    in
    let trace =
      List.stable_sort
        (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
        (List.concat_map snd cases)
    in
    let* ops =
      list_size (int_range 5 60)
        (frequency
           [
             (6, return Step);
             (3, map (fun d -> Fire d) (int_range (-20) 140));
             ( 2,
               map2 (fun ck lag -> Copy (ck, lag)) (int_bound 2) (int_range 1 8)
             );
             (1, return Reset);
             (1, map (fun lag -> Load lag) (int_range 0 8));
           ])
    in
    return (List.map fst cases, trace, ops))

let print_floor_case (ps, trace, ops) =
  let op = function
    | Step -> "step"
    | Fire d -> Printf.sprintf "fire %+d" d
    | Copy (ck, lag) -> Printf.sprintf "copy %d lag %d" ck lag
    | Reset -> "reset"
    | Load lag -> Printf.sprintf "load lag %d" lag
  in
  Format.asprintf "@[<v>%a@,trace: %s@,ops: %s@]"
    (Format.pp_print_list Pattern.pp)
    ps (Trace.to_string trace)
    (String.concat "; " (List.map op ops))

let prop_due_floor (ps, trace, ops) =
  let entries = List.mapi (fun i p -> (Printf.sprintf "p%d" i, p)) ps in
  let events = Array.of_list trace in
  let floor = Flat.compile entries and sweep = Flat.compile entries in
  let logged e =
    let log = ref [] in
    Flat.set_notify e (Some (fun ck -> log := ck :: !log));
    log
  in
  let floor_log = logged floor and sweep_log = logged sweep in
  let cursor = ref 0 and now = ref 0 in
  let step e (ev : Trace.event) =
    match Flat.gid_of_name e ev.name with
    | Some gid -> Flat.step_name e ~gid ~time:ev.time
    | None -> ()
  in
  (* the first [cursor - lag] events, no deadline fired *)
  let source lag =
    let src = Flat.compile entries in
    for i = 0 to !cursor - lag - 1 do
      step src events.(i)
    done;
    src
  in
  let apply = function
    | Step ->
        if !cursor < Array.length events then begin
          let e = events.(!cursor) in
          incr cursor;
          now := e.time;
          step floor e;
          step sweep e
        end
    | Fire d ->
        Flat.fire_due floor ~upto:(!now + d);
        sweep_due sweep ~upto:(!now + d)
    | Copy (ck, lag) ->
        let src = source lag and ck = ck mod List.length ps in
        Flat.copy_checker ~src floor ck;
        Flat.copy_checker ~src sweep ck
    | Reset ->
        Flat.reset floor;
        Flat.reset sweep
    | Load lag ->
        let blob = Flat.save_blob (source lag) in
        Result.iter_error failwith (Flat.load_blob floor blob);
        Result.iter_error failwith (Flat.load_blob sweep blob)
  in
  let rec run i = function
    | [] -> true
    | op :: rest ->
        apply op;
        if Flat.save_blob floor = Flat.save_blob sweep && !floor_log = !sweep_log
        then run (i + 1) rest
        else QCheck2.Test.fail_reportf "diverged at op %d, time %d" i !now
  in
  run 0 (ops @ [ Fire 200 ])

(* ---- allocation ---------------------------------------------------------- *)

(* The example catalog beside the fanout group: every name is
   interned in one engine, timed and untimed checkers alike. *)
let mixed_entries () =
  let catalog =
    List.map (fun (e : Suite.entry) -> (e.label, e.pattern)) (catalog_source ())
  in
  catalog @ fanout_entries ~width:16 ~k:8

(* [episodes] of catalog_ok.csv, one per 400 ticks, each with a fanout
   round on its odd ticks 1 to 33: (gid, time) pairs in time order. *)
let mixed_stream eng ~episodes =
  let ok =
    let path =
      List.find Sys.file_exists
        [
          "../examples/traces/catalog_ok.csv"; "examples/traces/catalog_ok.csv";
        ]
    in
    match Trace_io.load_csv path with
    | Ok tr -> tr
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let fan = fanout_trace ~width:16 ~rounds:episodes ~seed:9 in
  let events =
    List.concat
      (List.init episodes (fun ep ->
           List.map
             (fun (e : Trace.event) ->
               ev ((ep * 400) + e.time) (Name.to_string e.name))
             ok))
    @ List.mapi
        (fun i (e : Trace.event) ->
          ev (((i / 17) * 400) + (2 * (i mod 17)) + 1) (Name.to_string e.name))
        fan
  in
  let events =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) -> compare a.time b.time)
      events
  in
  ( Array.of_list
      (List.map
         (fun (e : Trace.event) -> Option.get (Flat.gid_of_name eng e.name))
         events),
    Array.of_list (List.map (fun (e : Trace.event) -> e.time) events) )

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_step_allocates_nothing () =
  Alcotest.(check (float 0.)) "measuring alone" 0. (minor_words ignore);
  let eng = Flat.compile (mixed_entries ()) in
  let gids, times = mixed_stream eng ~episodes:40 in
  let steps () =
    for i = 0 to Array.length gids - 1 do
      Flat.step_name eng ~gid:gids.(i) ~time:times.(i)
    done
  in
  Alcotest.(check (float 0.)) "step_name" 0. (minor_words steps);
  Alcotest.(check bool) "every property still passes" true
    (List.for_all
       (fun ck -> Flat.verdict_code eng ck = 0)
       (List.init (Flat.size eng) Fun.id));
  (* Firing each timed deadline early (25 ticks after the event that
     precedes it) makes fire_due decide misses as it goes. *)
  let eng = Flat.compile (mixed_entries ()) in
  let fire () =
    for i = 0 to Array.length gids - 1 do
      Flat.step_name eng ~gid:gids.(i) ~time:times.(i);
      Flat.fire_due eng ~upto:(times.(i) + 25)
    done
  in
  Alcotest.(check (float 0.)) "step_name and fire_due" 0. (minor_words fire);
  Alcotest.(check bool) "fire_due decided a miss" true
    (List.exists
       (fun ck ->
         match Flat.verdict eng ck with
         | Compiled.Violated { reason = Diag.Deadline_miss _; _ } -> true
         | _ -> false)
       (timed_checkers eng))

(* ---- opened-fragment cache --------------------------------------------- *)

(* The exact [Machine] of one checker, stepped beside the engine: its
   configurations are in bijection with the engine's, so recognizer
   states, counters, the active fragment and the timed flags must all
   match.  The machine does not model time, so a checker the engine
   decides on a deadline leaves the comparison. *)
type machine_ref = {
  machine : Machine.t;
  ids : (Name.t, int) Hashtbl.t;
  mutable mstate : Machine.state;
}

let machine_ref machine =
  let ids = Hashtbl.create 8 in
  for i = 0 to Machine.n_ids machine - 1 do
    Hashtbl.replace ids (Machine.name machine i) i
  done;
  { machine; ids; mstate = Machine.init machine }

let machine_step m (ev : Trace.event) =
  match Hashtbl.find_opt m.ids ev.name with
  | None -> ()
  | Some id -> (
      match Machine.step m.machine m.mstate id with
      | [ s ] -> m.mstate <- s
      | _ -> Alcotest.fail "an exact machine stepped to several states")

let decided_on_time = function
  | Flat.Violated
      { reason = Diag.Deadline_miss _ | Diag.Late_conclusion _; _ } ->
      true
  | _ -> false

let machine_agrees (s : Machine.state) (p : Flat.persisted) =
  let same_rec (c : Machine.rclass) (r : Flat.rec_state) =
    match (c, r) with
    | Machine.Idle, Flat.Idle
    | Machine.Waiting, Flat.Waiting
    | Machine.Started, Flat.Started
    | Machine.Done, Flat.Done ->
        true
    | Machine.Counting n, Flat.Counting k -> n = k
    | _ -> false
  in
  match (s.status, p.p_verdict) with
  | Machine.Running cfg, Flat.Running ->
      cfg.active = p.p_active
      && cfg.armed = (p.p_started >= 0)
      && cfg.q_done = p.p_q_done
      && s.matched = (p.p_rounds > 0)
      && Array.length cfg.recs = Array.length p.p_recs
      && Array.for_all2 same_rec cfg.recs p.p_recs
  | Machine.Satisfied, Flat.Satisfied -> true
  | Machine.Violated r, Flat.Violated v -> Diag.equal_reason r v.reason
  | _ -> false

let verdict_class = function
  | Flat.Running | Flat.Satisfied -> "pass"
  | Flat.Violated _ -> "fail"

(* Beside the slab, the engine caches per checker whether its active
   fragment is opened and which recognizer counts.  Every way of moving
   a checker's state in from elsewhere must drop that cache.  Each move
   lands in a twin that has stepped the whole trace first, so that the
   twin's caches describe some other state.  After every later event
   the moved engines must agree with the uninterrupted one, and that
   one with references built independently of the engine (which catch
   a cache kept across a fragment change in the uninterrupted run as
   well): per pattern the exact [Machine], stepped in lock-step, and
   the structural monitor's verdict class. *)
let prop_cache_moves (ps, trace, cut) =
  let entries = List.mapi (fun i p -> (Printf.sprintf "p%d" i, p)) ps in
  let n = List.length ps in
  let step e (ev : Trace.event) =
    Flat.check_time e ~now:ev.time;
    Flat.step_event e ev
  in
  let state e =
    Array.init n (fun ck -> (Flat.persist_checker e ck, Flat.verdict e ck))
  in
  let prefix = List.filteri (fun i _ -> i < cut) trace
  and rest = List.filteri (fun i _ -> i >= cut) trace in
  let whole = Flat.compile entries in
  List.iter (step whole) prefix;
  let machines =
    Array.of_list
      (List.map (fun p -> machine_ref (Machine.make ~exact:true p)) ps)
  in
  let directs = Array.of_list (List.map (fun p -> Backend.direct p) ps) in
  let timed_out = Array.make n false in
  let ref_step (ev : Trace.event) =
    Array.iter (fun m -> machine_step m ev) machines;
    Array.iter
      (fun d ->
        ignore (d.Backend.check_time ~now:ev.time);
        ignore (d.Backend.step ev))
      directs
  in
  List.iter ref_step prefix;
  let twin move =
    let e = Flat.compile entries in
    List.iter (step e) trace;
    move e;
    e
  in
  let each f e =
    for ck = 0 to n - 1 do
      f e ck
    done
  in
  let moved =
    [
      ( "copy_checker",
        twin (each (fun e ck -> Flat.copy_checker ~src:whole e ck)) );
      ( "load_blob",
        twin (fun e ->
            match Flat.load_blob e (Flat.save_blob whole) with
            | Ok () -> ()
            | Error msg -> failwith msg) );
      ( "reset_checker",
        twin (fun e ->
            each Flat.reset_checker e;
            List.iter (step e) prefix) );
    ]
  in
  let check at =
    let expected = state whole in
    Array.iteri
      (fun ck (persisted, v) ->
        if decided_on_time v then timed_out.(ck) <- true;
        if
          (not timed_out.(ck))
          && not (machine_agrees machines.(ck).mstate persisted)
        then
          QCheck2.Test.fail_reportf "%s: checker %d left the exact machine" at
            ck;
        let direct =
          match directs.(ck).Backend.verdict () with
          | Backend.Violated _ -> "fail"
          | Backend.Running | Backend.Satisfied -> "pass"
        in
        if direct <> verdict_class v then
          QCheck2.Test.fail_reportf
            "%s: checker %d is %s, the structural monitor %s" at ck
            (verdict_class v) direct)
      expected;
    List.iter
      (fun (how, e) ->
        if state e <> expected then
          QCheck2.Test.fail_reportf "%s: the %s twin diverged" at how)
      moved
  in
  check "at the cut";
  List.iteri
    (fun i ev ->
      step whole ev;
      ref_step ev;
      List.iter (fun (_, e) -> step e ev) moved;
      check (Printf.sprintf "after event %d" (cut + i)))
    rest;
  true

(* ---- patched tables ---------------------------------------------------- *)

(* One table patch of each kind the mutation engine perturbs a monitor
   with — a Self/Current category swap, a terminator flip, an owner
   move, new counter bounds, a new deadline — drawn over [p]'s tables. *)
let gen_patch p =
  let st = Compiled.static (Compiled.compile p) in
  let n_names = Array.length st.names and n_recs = Array.length st.rec_range in
  let swaps =
    List.concat
      (List.init n_recs (fun r ->
           List.filter_map
             (fun id ->
               match st.category.(r).(id) with
               | Context.Self -> Some (r, id, Context.Current)
               | Context.Current -> Some (r, id, Context.Self)
               | _ -> None)
             (List.init n_names Fun.id)))
  in
  QCheck2.Gen.(
    let* id = int_bound (n_names - 1) in
    let* r = int_bound (n_recs - 1) in
    let* kind = int_bound 4 in
    match kind with
    | 0 ->
        let* swap = oneofl swaps in
        return { Compiled.no_patch with set_category = [ swap ] }
    | 1 ->
        return
          {
            Compiled.no_patch with
            set_terminator = [ (id, not st.terminator.(id)) ];
          }
    | 2 ->
        let* f = int_range (-1) (st.fragments - 1) in
        return { Compiled.no_patch with set_owner = [ (id, f) ] }
    | 3 ->
        let* lo = int_range 1 3 in
        let* extra = int_range 0 2 in
        return
          {
            Compiled.no_patch with
            set_lo = [ (r, lo) ];
            set_hi = [ (r, lo + extra) ];
          }
    | _ ->
        let* d = int_range 0 50 in
        return { Compiled.no_patch with set_deadline = Some d })

let gen_patch_case =
  QCheck2.Gen.(
    let* p = gen_pattern in
    let* patch = gen_patch p in
    let* ids =
      list_size (int_range 0 14)
        (int_bound (Name.Set.cardinal (Pattern.alpha p) - 1))
    in
    return (p, patch, ids))

let print_patch (p : Compiled.patch) =
  let pairs f l = String.concat ";" (List.map f l) in
  Printf.sprintf "cat [%s] owner [%s] term [%s] lo [%s] hi [%s] deadline %s"
    (pairs (fun (r, id, _) -> Printf.sprintf "%d.%d" r id) p.set_category)
    (pairs (fun (id, f) -> Printf.sprintf "%d->%d" id f) p.set_owner)
    (pairs (fun (id, b) -> Printf.sprintf "%d:%b" id b) p.set_terminator)
    (pairs (fun (r, v) -> Printf.sprintf "%d:%d" r v) p.set_lo)
    (pairs (fun (r, v) -> Printf.sprintf "%d:%d" r v) p.set_hi)
    (match p.set_deadline with Some d -> string_of_int d | None -> "-")

let print_patch_case (p, patch, ids) =
  Format.asprintf "@[<v>pattern: %a@,patch: %s@,ids: %s@]" Pattern.pp p
    (print_patch patch)
    (String.concat " " (List.map string_of_int ids))

(* A patched monitor steps, event by event, like the exact machine over
   the same patched tables.  Every event is at time 0, so no deadline
   can expire and the machine's time abstraction is exact.  A patch can
   break the invariant the opened-fragment shortcut needs (an owned
   name [Self] in its recognizer, [Current] in the siblings); such a
   monitor must step whole fragments, as the machine does. *)
let prop_patched_machine (p, patch, ids) =
  let c = Compiled.patched (Compiled.compile p) patch in
  let machine = Machine.of_compiled ~exact:true c in
  let state = ref (Machine.init machine) in
  List.iteri
    (fun i id ->
      ignore (Compiled.step_id c ~id ~time:0);
      (match Machine.step machine !state id with
      | [ s ] -> state := s
      | _ -> QCheck2.Test.fail_report "an exact machine branched");
      if Machine.project machine c <> !state then
        QCheck2.Test.fail_reportf
          "event %d (id %d): the monitor left the machine" i id)
    ids;
  true

(* Pinned swaps in {a[2,2], b} <<! go, each stepped after the fragment
   opens.  Self to Current: a is [Self] nowhere, so once b opens the
   fragment, a has no owner recognizer for the shortcut to step.
   Current to Self: b's recognizer counts a too, so a opens the
   fragment with two recognizers counting, and on b a's recognizer
   underflows before b's overflows. *)
let test_patched_swap_after_open () =
  let p = pat "{a[2,2], b} <<! go" in
  let st = Compiled.static (Compiled.compile p) in
  let id nm =
    let rec find i =
      if Name.equal st.names.(i) (name nm) then i else find (i + 1)
    in
    find 0
  in
  let self_of nm =
    List.find
      (fun r -> st.category.(r).(id nm) = Context.Self)
      (List.init (Array.length st.rec_range) Fun.id)
  in
  let swap r nm c =
    { Compiled.no_patch with set_category = [ (r, id nm, c) ] }
  in
  Alcotest.(check bool) "self to current steps like the exact machine" true
    (prop_patched_machine
       ( p,
         swap (self_of "a") "a" Context.Current,
         List.map id [ "b"; "a"; "a"; "b"; "go" ] ));
  Alcotest.(check bool) "current to self steps like the exact machine" true
    (prop_patched_machine
       (p, swap (self_of "b") "a" Context.Self, List.map id [ "a"; "b" ]))

let () =
  Alcotest.run "flat"
    [
      ( "layout",
        [
          Alcotest.test_case "packing pins" `Quick test_layout_pins;
          Alcotest.test_case "dispatch table" `Quick test_dispatch_table;
          Alcotest.test_case "local ids, multi-copy catalog" `Quick
            test_local_of_name_multi_copy;
          Alcotest.test_case "dispatch paths agree" `Quick
            test_dispatch_paths_agree;
        ] );
      ( "counters",
        [
          Alcotest.test_case "overflow" `Quick test_counter_overflow;
          Alcotest.test_case "underflow" `Quick test_counter_underflow;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "wheel firing order" `Quick
            test_deadline_firing_order;
          qtest ~count:500 "the due floor fires as the full sweep"
            gen_floor_case print_floor_case prop_due_floor;
        ] );
      ( "blob",
        [
          Alcotest.test_case "roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "rejections" `Quick test_blob_rejections;
          Alcotest.test_case "unreachable words" `Quick
            test_blob_unreachable_words;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "touches",
        [
          Alcotest.test_case "fanout shape, one group" `Quick
            test_fanout_touches;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "step_name and fire_due allocate nothing" `Quick
            test_step_allocates_nothing;
        ] );
      ( "slab",
        [
          qtest ~count:300 "copy from a twin engine is exact" gen_copy_case
            print_copy_case prop_copy_exact;
          Alcotest.test_case "copy refuses another suite" `Quick
            test_copy_refuses_other_suite;
          qtest ~count:500 "state moves drop the opened-fragment cache"
            gen_copy_case print_copy_case prop_cache_moves;
        ] );
      ( "patched",
        [
          qtest ~count:500 "patched tables step like the exact machine"
            gen_patch_case print_patch_case prop_patched_machine;
          Alcotest.test_case "self/current swaps after the fragment opens"
            `Quick test_patched_swap_after_open;
        ] );
    ]
