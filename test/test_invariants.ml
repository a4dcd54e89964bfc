(* Cross-cutting invariants and small-surface modules: names,
   diagnostics rendering, and internal monitor invariants that no single
   unit suite owns. *)

open Loseq_core
open Loseq_testutil

(* ---- Name ------------------------------------------------------------- *)

let test_name_accepts_identifiers () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Name.to_string (Name.v s)))
    [ "a"; "set_imgAddr"; "n1"; "a.b-c"; "X" ]

let test_name_rejects_bad () =
  List.iter
    (fun s ->
      match Name.v s with
      | (_ : Name.t) -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ ""; "a b"; "a$b"; "café"; "x\n" ]

let test_name_set_helpers () =
  let set = Name.set_of_list [ Name.v "b"; Name.v "a"; Name.v "b" ] in
  Alcotest.(check int) "dedup" 2 (Name.Set.cardinal set);
  Alcotest.(check string) "pp" "{a, b}"
    (Format.asprintf "%a" Name.pp_set set)

(* ---- Diag rendering ---------------------------------------------------- *)

let test_violation_rendering () =
  let m = Monitor.create (pat "a[1,2] << i") in
  ignore (Monitor.step m (Trace.event ~time:7 (name "a")));
  ignore (Monitor.step m (Trace.event ~time:8 (name "a")));
  ignore (Monitor.step m (Trace.event ~time:9 (name "a")));
  match Monitor.verdict m with
  | Monitor.Violated v ->
      let text = Diag.violation_to_string v in
      List.iter
        (fun fragment ->
          Alcotest.(check bool) fragment true
            (let nh = String.length text and nn = String.length fragment in
             let rec loop i =
               if i + nn > nh then false
               else if String.sub text i nn = fragment then true
               else loop (i + 1)
             in
             loop 0))
        [ "t=9"; "a"; "event #2"; "2 occurrence" ]
  | _ -> Alcotest.fail "expected violation"

let test_all_reasons_render () =
  (* Every constructor has a human-readable, non-empty rendering. *)
  let r = Pattern.range ~lo:2 ~hi:4 (name "x") in
  let reasons =
    [
      Diag.Before_name; Diag.After_name; Diag.Overflow r; Diag.Underflow r;
      Diag.Reentered r; Diag.Missing r; Diag.Empty_fragment;
      Diag.Trigger_early;
      Diag.Deadline_miss { started = 1; deadline = 5; now = 9 };
      Diag.Late_conclusion { deadline = 5; at = 9 };
      Diag.Foreign (name "z"); Diag.Formula_falsified;
    ]
  in
  List.iter
    (fun reason ->
      let text = Format.asprintf "%a" Diag.pp_reason reason in
      Alcotest.(check bool) "non-empty" true (String.length text > 3))
    reasons

(* ---- Diag: the buffer writer against the Format printers ------------- *)

(* The field-by-field Format printers the buffer writer replaced, kept
   as the reference it must match byte for byte. *)
let ref_pp_reason ppf (r : Diag.reason) =
  match r with
  | Before_name -> Format.pp_print_string ppf "name of an earlier fragment"
  | After_name -> Format.pp_print_string ppf "name of a later fragment"
  | Overflow r ->
      Format.fprintf ppf "more than %d occurrence(s) of %a" r.hi Name.pp
        r.name
  | Underflow r ->
      Format.fprintf ppf "block of %a ended before %d occurrence(s)" Name.pp
        r.name r.lo
  | Reentered r ->
      Format.fprintf ppf "second block for range %a" Pattern.pp_range r
  | Missing r ->
      Format.fprintf ppf "required range %a never occurred" Pattern.pp_range r
  | Empty_fragment ->
      Format.pp_print_string ppf "disjunctive fragment matched no range"
  | Trigger_early ->
      Format.pp_print_string ppf "trigger before its antecedent was observed"
  | Deadline_miss { started; deadline; now } ->
      Format.fprintf ppf
        "conclusion not finished by t=%d (premise ended at %d, checked at %d)"
        deadline started now
  | Late_conclusion { deadline; at } ->
      Format.fprintf ppf "conclusion event at t=%d after deadline t=%d" at
        deadline
  | Foreign n -> Format.fprintf ppf "foreign event %a" Name.pp n
  | Formula_falsified ->
      Format.pp_print_string ppf "PSL residual obligation falsified"

let ref_pp_violation ppf (v : Diag.violation) =
  Format.fprintf ppf "@[<h>violation at t=%d" v.time;
  (match v.name with
  | Some n -> Format.fprintf ppf " on %a (event #%d)" Name.pp n v.index
  | None -> ());
  Format.fprintf ppf ", fragment %d: %a@]" v.fragment ref_pp_reason v.reason

let ref_pp_verdict ppf = function
  | Backend.Violated v -> Format.fprintf ppf "FAIL: %a" ref_pp_violation v
  | v -> Format.pp_print_string ppf (Backend.verdict_to_string v)

(* Ints a message carries: negative, large and the extremes. *)
let gen_diag_int =
  QCheck2.Gen.(
    oneof
      [
        small_signed_int;
        int;
        oneofl [ 0; -1; 9; 10; min_int; max_int ];
      ])

let gen_diag_range =
  QCheck2.Gen.(
    let* nm = oneofa name_pool in
    let* lo, hi =
      oneof
        [
          return (1, 1);
          (let* lo = oneof [ int_range 1 5; int_range 1 max_int ] in
           let* hi = oneof [ return lo; int_range lo max_int ] in
           return (lo, hi));
        ]
    in
    return (Pattern.range ~lo ~hi (name nm)))

let gen_reason =
  QCheck2.Gen.(
    let* r = gen_diag_range
    and* a = gen_diag_int
    and* b = gen_diag_int
    and* c = gen_diag_int
    and* nm = oneofa name_pool in
    oneofl
      Diag.
        [
          Before_name; After_name; Overflow r; Underflow r; Reentered r;
          Missing r; Empty_fragment; Trigger_early;
          Deadline_miss { started = a; deadline = b; now = c };
          Late_conclusion { deadline = a; at = b };
          Foreign (name nm); Formula_falsified;
        ])

let gen_violation =
  QCheck2.Gen.(
    let* nm = option (oneofa name_pool)
    and* time = gen_diag_int
    and* index = gen_diag_int
    and* fragment = gen_diag_int
    and* reason = gen_reason in
    return
      { Diag.name = Option.map name nm; time; index; fragment; reason })

let print_violation v = Format.asprintf "%a" ref_pp_violation v

let qcheck_violation_text =
  qtest ~count:2000 "violation text matches the Format printers" gen_violation
    print_violation (fun v ->
      String.equal (Diag.violation_to_string v)
        (Format.asprintf "%a" ref_pp_violation v)
      && String.equal
           (Format.asprintf "%a" Diag.pp_reason v.reason)
           (Format.asprintf "%a" ref_pp_reason v.reason)
      && String.equal
           (Backend.verdict_to_string (Backend.Violated v))
           (Format.asprintf "%a" ref_pp_verdict (Backend.Violated v)))

(* [pp x] printed [off] columns into an enclosing box, with a break
   hint before and after it, so that the margin falls anywhere on the
   message. *)
let in_box open_box off pp x =
  Format.asprintf "%t" (fun ppf ->
      open_box ppf 2;
      Format.pp_print_string ppf "begin";
      Format.pp_print_space ppf ();
      Format.pp_print_string ppf (String.make off 'x');
      pp ppf x;
      Format.pp_print_space ppf ();
      Format.pp_print_string ppf "end";
      Format.pp_close_box ppf ())

let qcheck_violation_boxed =
  qtest ~count:100 "pp_violation in enclosing boxes at every offset"
    gen_violation print_violation (fun v ->
      let boxes =
        Format.
          [ pp_open_hovbox; pp_open_vbox; pp_open_box; pp_open_hvbox ]
      in
      List.for_all
        (fun open_box ->
          List.for_all
            (fun off ->
              let same pp reference x =
                String.equal (in_box open_box off pp x)
                  (in_box open_box off reference x)
              in
              same Diag.pp_violation ref_pp_violation v
              && same Diag.pp_reason ref_pp_reason v.reason
              && same Backend.pp_verdict ref_pp_verdict (Backend.Violated v))
            (List.init 121 Fun.id))
        boxes)

(* ---- Json: the emitter against the character-at-a-time one ------------ *)

(* The escape and emitter the run-based ones replaced, kept as the
   reference. *)
let ref_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec ref_emit buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float _ -> invalid_arg "ref_emit: no floats in these samples"
  | String s -> ref_escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          ref_emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          ref_escape buf k;
          Buffer.add_char buf ':';
          ref_emit buf v)
        fields;
      Buffer.add_char buf '}'

let ref_to_string v =
  let buf = Buffer.create 64 in
  ref_emit buf v;
  Buffer.contents buf

let all_bytes = String.init 256 Char.chr

(* Strings over every byte, biased toward the escaped ones; no floats,
   whose integral values parse back as ints. *)
let gen_json =
  QCheck2.Gen.(
    let gen_string =
      oneof
        [
          string_size ~gen:char (int_range 0 12);
          string_size
            ~gen:(oneof [ char_range '\000' '\031'; oneofl [ '"'; '\\' ] ])
            (int_range 0 6);
          return all_bytes;
        ]
    in
    let gen_int = oneof [ int; oneofl [ 0; 9; 10; -1; min_int; max_int ] ] in
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) gen_int;
                 map (fun s -> Json.String s) gen_string;
               ]
           in
           if depth = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map
                   (fun l -> Json.List l)
                   (list_size (int_range 0 4) (self (depth - 1)));
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4)
                      (pair gen_string (self (depth - 1))));
               ]))

let qcheck_json_emission =
  qtest ~count:1000 "Json emission matches the reference and parses back"
    gen_json ref_to_string (fun v ->
      let text = Json.to_string v in
      String.equal text (ref_to_string v) && Json.of_string text = Ok v)

let test_json_every_byte () =
  let v =
    Json.Obj
      [
        (all_bytes, Json.String all_bytes);
        ( "ints",
          Json.List
            (List.map
               (fun i -> Json.Int i)
               [ 0; 9; 10; -1; min_int; max_int; 100; -100 ]) );
      ]
  in
  let text = Json.to_string v in
  Alcotest.(check string) "reference" (ref_to_string v) text;
  Alcotest.(check bool) "round trip" true (Json.of_string text = Ok v)

(* The serve writer reuses one buffer: a long record, then shorter
   ones, must each come out whole and alone. *)
let qcheck_serve_emitter =
  qtest ~count:200 "serve emitter writes to_string plus a newline"
    QCheck2.Gen.(list_size (int_range 1 5) gen_json)
    (fun rs -> String.concat "\n" (List.map ref_to_string rs))
    (fun records ->
      let path = Filename.temp_file "loseq_records" ".ndjson" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let sink = Loseq_ingest.Server.sink oc in
          List.iter (Loseq_ingest.Server.emit_record sink) records);
      String.equal
        (In_channel.with_open_bin path In_channel.input_all)
        (String.concat ""
           (List.map (fun r -> Json.to_string r ^ "\n") records)))

(* ---- Engine invariant: at most one recognizer counts at a time -------- *)

let counting_recognizers states =
  List.fold_left
    (fun acc frag ->
      acc
      + List.length
          (List.filter
             (function Recognizer.Counting _ -> true | _ -> false)
             frag))
    0 states

let qcheck_single_counter_invariant =
  qtest ~count:600 "at most one recognizer counts per instant"
    gen_pattern_and_trace print_pattern_and_trace
    (fun (p, trace) ->
      if not (Trace.is_chronological trace) then true
      else begin
        let m = Monitor.create p in
        List.for_all
          (fun e ->
            ignore (Monitor.step m e);
            counting_recognizers (Monitor.fragment_states m) <= 1)
          trace
      end)

(* ---- Monitor ops are deterministic ------------------------------------ *)

let qcheck_ops_deterministic =
  qtest ~count:300 "instrumented op counts are reproducible"
    gen_pattern_and_trace print_pattern_and_trace
    (fun (p, trace) ->
      if not (Trace.is_chronological trace) then true
      else
        let measure () =
          let ops = ref 0 in
          let m = Monitor.create ~ops p in
          List.iter (fun e -> ignore (Monitor.step m e)) trace;
          !ops
        in
        measure () = measure ())

(* ---- Verdict monotonicity --------------------------------------------- *)

let qcheck_verdict_sticky =
  qtest ~count:400 "verdicts never change once decided"
    QCheck2.Gen.(
      let* p, trace = gen_pattern_and_trace in
      let* extra = gen_trace_for p in
      return (p, trace, extra))
    (fun (p, trace, extra) ->
      print_pattern_and_trace (p, trace @ extra))
    (fun (p, trace, extra) ->
      if not (Trace.is_chronological trace) then true
      else begin
        let m = Monitor.create p in
        List.iter (fun e -> ignore (Monitor.step m e)) trace;
        match Monitor.verdict m with
        | Monitor.Running -> true
        | decided ->
            List.iter (fun e -> ignore (Monitor.step m e)) extra;
            Monitor.verdict m = decided
      end)

let () =
  Alcotest.run "invariants"
    [
      ( "names",
        [
          Alcotest.test_case "accepts" `Quick test_name_accepts_identifiers;
          Alcotest.test_case "rejects" `Quick test_name_rejects_bad;
          Alcotest.test_case "sets" `Quick test_name_set_helpers;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "violation text" `Quick test_violation_rendering;
          Alcotest.test_case "all reasons render" `Quick
            test_all_reasons_render;
          qcheck_violation_text;
          qcheck_violation_boxed;
        ] );
      ( "json",
        [
          Alcotest.test_case "every byte" `Quick test_json_every_byte;
          qcheck_json_emission;
          qcheck_serve_emitter;
        ] );
      ( "monitor invariants",
        [
          qcheck_single_counter_invariant;
          qcheck_ops_deterministic;
          qcheck_verdict_sticky;
        ] );
    ]
