(* The differential oracle.  The paper's correctness argument is that a
   monitor accepts exactly the traces the declarative semantics of
   Section 4 accepts, so every way this repo can execute a suite must
   give each entry the verdict of [Semantics.holds].  One sample
   generator feeds one registry of execution modes, and every mode is
   checked against the semantics on the same samples: random ones
   skewed toward deadlines, and every short word over a few fixed
   patterns.  Adding a mode is one entry in [modes]. *)

open Loseq_core
open Loseq_verif
open Loseq_ingest
open Loseq_testutil
module Engine = Loseq_ooo.Engine
module Metrics = Loseq_obs.Metrics
module Ring = Loseq_obs.Trace
module Kernel = Loseq_sim.Kernel
module Time = Loseq_sim.Time
module Shard = Loseq_analysis.Shard

(* ---- samples ---------------------------------------------------------- *)

type sample = {
  suite : Suite.t;  (** 1-3 entries *)
  trace : Trace.t;  (** chronological *)
  arrival : Trace.t;  (** [trace], timestamps jittered by <= lateness *)
  lateness : int;
  cut : int;  (** checkpoint position in [arrival] *)
  final_time : int;  (** >= the trace's end *)
  shards : int;  (** shard count handed to the planner *)
  window : int;  (** small reorder window of the admission checks *)
  chunk : int;  (** LSQB bytes per decoder feed *)
}

let print_sample s =
  Format.asprintf
    "@[<v>suite:@,%s@,trace: %s@,arrival: %s@,lateness %d, cut %d, \
     final_time %d, shards %d, window %d, chunk %d@]"
    (Suite.to_string s.suite) (Trace.to_string s.trace)
    (Trace.to_string s.arrival) s.lateness s.cut s.final_time s.shards
    s.window s.chunk

(* Re-stamp a word so that conclusions often complete exactly at
   deadline - 1, deadline or deadline + 1 after their premise ends: the
   deadline discipline is the riskiest reading of the paper (DESIGN
   §3).  A timed entry is due at the latest event of its premise's
   last fragment plus its deadline plus its [slack] (-1, 0 or 1).  Each
   step is a tie or a gap of 1-30 ticks, except that a conclusion event
   of a due entry never passes, and half the time jumps to, the due
   instant (never back in time).  Also returns the due instants, from
   which [gen_sample] picks the final time. *)
let stamp suite slack names steps =
  let clocks =
    List.concat
      (List.map2
         (fun (e : Suite.entry) slack ->
           match e.pattern with
           | Pattern.Timed g ->
               let last = List.nth g.premise (List.length g.premise - 1) in
               [ ( Pattern.alpha_fragment last,
                   Pattern.alpha_ordering g.conclusion,
                   g.deadline + slack,
                   ref None ) ]
           | Pattern.Antecedent _ -> [])
         suite slack)
  in
  let due (_, _, wait, anchor) = Option.map (( + ) wait) !anchor in
  let now = ref 0 in
  let stamp_one name (kind, gap) =
    let here =
      List.filter_map
        (fun ((_, q, _, _) as c) -> if Name.Set.mem name q then due c else None)
        clocks
    in
    (now :=
       match (kind, here) with
       | (0 | 1), _ -> !now
       | _, [] -> !now + gap
       | _, here ->
           let due = max !now (List.fold_left min max_int here) in
           if kind < 5 then min (!now + gap) due else due);
    List.iter
      (fun (p, _, _, anchor) -> if Name.Set.mem name p then anchor := Some !now)
      clocks;
    { Trace.name; time = !now }
  in
  let trace = List.map2 stamp_one names steps in
  (trace, List.filter_map due clocks)

(* Two timed entries in three.  Half the entries keep the shared name
   pool, so names fan out across entries; the others are renamed apart,
   so that their valid words stay valid in the merged trace. *)
let gen_entry i =
  QCheck2.Gen.(
    let* pattern = frequency [ (2, gen_timed); (1, gen_antecedent) ] in
    let* shared = bool in
    let rename n = Name.v (Printf.sprintf "%s%d" (Name.to_string n) i) in
    let pattern = if shared then pattern else rename_pattern rename pattern in
    return { Suite.label = Printf.sprintf "p%d" i; pattern; line = i + 1 })

(* Two valid words in three; the rest [gen_trace_for]'s mix. *)
let gen_word p =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let valid = Generate.valid ~rounds:(1 + (seed mod 3)) rng p in
    frequency [ (2, return valid); (1, gen_trace_for p) ])

let gen_sample =
  QCheck2.Gen.(
    let* n = int_range 1 3 in
    let* suite = flatten_l (List.init n gen_entry) in
    let* words =
      flatten_l (List.map (fun (e : Suite.entry) -> gen_word e.pattern) suite)
    in
    (* the words interleaved; a name no entry hears now and then *)
    let word = Trace.names (Trace_io.merge words) in
    let* foreign = list_repeat (List.length word) (int_bound 7) in
    let word =
      List.concat
        (List.map2
           (fun nm f -> if f = 0 then [ Name.v "zz"; nm ] else [ nm ])
           word foreign)
    in
    let* steps =
      list_repeat (List.length word) (pair (int_bound 7) (int_range 1 30))
    in
    let* slack = list_repeat n (int_range (-1) 1) in
    let trace, due = stamp suite slack word steps in
    let* lateness = frequency [ (1, return 0); (4, int_range 1 40) ] in
    let* arrival = gen_scramble lateness trace in
    let* cut = int_bound (List.length arrival) in
    let* tail = int_bound 3 and* pick = small_nat in
    let* delta = int_range (-1) 1 in
    let end_time = Trace.end_time trace in
    let final_time =
      match (tail, due) with
      | 0, _ | _, [] -> end_time
      | 1, _ -> end_time + 1
      | _, due -> max end_time (List.nth due (pick mod List.length due) + delta)
    in
    let* shards = int_range 1 4 and* window = int_range 1 3 in
    let* chunk = int_range 1 7 in
    return
      {
        suite; trace; arrival; lateness; cut; final_time; shards; window;
        chunk;
      })

(* ---- the contract ----------------------------------------------------- *)

(* A mode runs a sample and returns every entry's [(label, passed)] in
   suite order, or [Error] for a refusal that is typed and expected:
   each mode decides that in its own refusal branch.  A mode's extra
   checks raise [Post]. *)
type mode = {
  name : string;
  samples : int;  (** random samples per run *)
  run : sample -> ((string * bool) list, string) result;
}

let mode ?(samples = 3000) name run = { name; samples; run }

exception Post of string

let post fmt = Format.kasprintf (fun msg -> raise (Post msg)) fmt

let verify mode s =
  let show verdicts =
    String.concat ", "
      (List.map (fun (l, ok) -> Printf.sprintf "%s=%b" l ok) verdicts)
  in
  let want =
    List.map
      (fun (e : Suite.entry) ->
        (e.label, Semantics.holds ~final_time:s.final_time e.pattern s.trace))
      s.suite
  in
  match mode.run s with
  | Ok got when got = want -> Ok ()
  | Ok got ->
      Error (Printf.sprintf "%s, Semantics.holds %s" (show got) (show want))
  | Error _refusal -> Ok ()
  | exception Post msg -> Error msg
  | exception e -> Error ("raised " ^ Printexc.to_string e)

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* ---- batch ------------------------------------------------------------ *)

let direct = Backend.per_pattern (fun p -> Backend.direct p)
let passed_of summary = List.map (fun (l, v) -> (l, Backend.passed v)) summary

let batch ?metrics backend s =
  Suite.check_trace ?metrics ~backend ~final_time:s.final_time s.suite s.trace

let verdict_class = function
  | Backend.Running -> "running"
  | Backend.Satisfied -> "satisfied"
  | Backend.Violated _ -> "violated"

(* The structural monitor and a flat engine per pattern, stepped in
   lockstep per entry: the same verdict class and armed deadline after
   every event, and the same rendered diagnostic (time, event ordinal,
   fragment, reason; all but the offending name, which only the
   structural monitor keeps) at the end. *)
let lockstep s =
  List.iter
    (fun (e : Suite.entry) ->
      let backends = [ Backend.direct e.pattern; Backend.flat e.pattern ] in
      List.iter
        (fun (ev : Trace.event) ->
          let classes =
            List.map (fun b -> verdict_class (b.Backend.step ev)) backends
          in
          if not (all_equal classes) then
            post "%s: after %a@%d direct/flat are %s" e.label Name.pp
              ev.name ev.time (String.concat "/" classes);
          let armed = List.map (fun b -> b.Backend.next_deadline ()) backends in
          if not (all_equal armed) then
            post "%s: armed deadlines differ after %a@%d" e.label Name.pp
              ev.name ev.time)
        s.trace;
      let render b =
        let v =
          match b.Backend.finalize ~now:s.final_time with
          | Backend.Violated v -> Backend.Violated { v with Diag.name = None }
          | v -> v
        in
        Format.asprintf "%a" Backend.pp_verdict v
      in
      let rendered = List.map render backends in
      if not (all_equal rendered) then
        post "%s: direct/flat render %s" e.label
          (String.concat " / " rendered))
    s.suite

(* PSL 1.1 has no quantitative deadlines, and progression falsifies a
   safety clause only at the next reset point (Progress.backend's
   documented limits): a timed entry, or an antecedent whose alphabet
   events do not end on its trigger, is refused, and so is a range the
   encoding cannot hold. *)
let psl s =
  let pending (e : Suite.entry) =
    let heard =
      List.filter (fun n -> Name.Set.mem n (Pattern.alpha e.pattern))
        (Trace.names s.trace)
    in
    match (e.pattern, List.rev heard) with
    | Pattern.Timed _, _ -> Some (e.label ^ ": deadlines are outside PSL")
    | Pattern.Antecedent a, last :: _ when not (Name.equal last a.trigger) ->
        Some (e.label ^ ": verdict pending until the next trigger")
    | Pattern.Antecedent _, _ -> None
  in
  match List.find_map pending s.suite with
  | Some refusal -> Error refusal
  | None -> (
      match batch (Backend.per_pattern Loseq_psl.Progress.backend) s with
      | verdicts -> Ok verdicts
      | exception Invalid_argument msg -> Error msg)

let read metrics ?(labels = []) name =
  Option.value ~default:0 (Metrics.read_counter metrics ~name ~labels ())

let check_counters counters =
  List.iter
    (fun (family, got, want) ->
      if got <> want then post "%s reads %d, want %d" family got want)
    counters

(* With a live registry every backend is instrumented and each entry
   steps the whole trace. *)
let batch_metrics s =
  let metrics = Metrics.create () in
  let verdicts = batch ~metrics Backend.flat_views s in
  check_counters
    [ ( "loseq_backend_steps_total",
        read metrics "loseq_backend_steps_total"
          ~labels:[ ("backend", "flat") ],
        List.length s.trace * List.length s.suite ) ];
  Ok verdicts

(* ---- hosted on a tap -------------------------------------------------- *)

(* Emit the trace on a tap, kernel time advancing to each event and
   then to the final time, so deadlines fire from the hub's wheel;
   every pending deadline must be live in the wheel after every event.
   Returns the verdicts, the hub and its violations as (label, time,
   reason). *)
let hosted ?metrics ?trace backend s =
  let kernel = Kernel.create () in
  let tap = Tap.create ~record:false kernel in
  let hub = Suite.attach_hub ?metrics ?trace ~backend tap s.suite in
  let log = ref [] in
  Hub.on_violation hub (fun c v ->
      log := (Checker.name c, v.Diag.time, v.Diag.reason) :: !log);
  let advance t =
    if Time.( < ) (Kernel.now kernel) (Time.ps t) then
      Kernel.run ~until:(Time.ps t) kernel
  in
  List.iter
    (fun (e : Trace.event) ->
      advance e.time;
      Tap.emit_name tap e.name;
      if not (Hub.wheel_consistent hub) then
        post "deadline wheel inconsistent after %a@%d" Name.pp e.name e.time)
    s.trace;
  advance s.final_time;
  Hub.finalize hub;
  let verdicts =
    List.map
      (fun c -> (Checker.name c, Backend.passed (Checker.verdict c)))
      (Hub.checkers hub)
  in
  (verdicts, hub, List.rev !log)

(* [backend] hosted on a hub reports the violations (time and reason)
   the structural monitor hosted per checker reports; [engine] says
   whether the hub must step one shared flat engine. *)
let hub ~engine backend s =
  let verdicts, hub, log = hosted backend s in
  if (Hub.engine hub <> None) <> engine then
    post "hosted %s" (if engine then "per checker" else "engine-direct");
  let _, _, reference = hosted direct s in
  if log <> reference then post "violations differ from per-checker direct";
  Ok verdicts

(* A live registry and flight recorder on the hub: dispatches count
   the events, deliveries count each event once per entry that hears
   it, and violated transitions count the failing entries. *)
let hub_observed s =
  let metrics = Metrics.create () in
  let trace = Ring.create ~capacity:256 () in
  let verdicts, _, _ = hosted ~metrics ~trace Backend.flat_views s in
  let hears (ev : Trace.event) =
    List.length
      (List.filter
         (fun (e : Suite.entry) ->
           Name.Set.mem ev.name (Pattern.alpha e.pattern))
         s.suite)
  in
  let delivered nm =
    read metrics "loseq_hub_deliveries_total"
      ~labels:[ ("name", Name.to_string nm) ]
  in
  let names = List.sort_uniq Name.compare (Trace.names s.trace) in
  check_counters
    [
      ( "loseq_events_dispatched_total",
        read metrics "loseq_events_dispatched_total",
        List.length s.trace );
      ( "loseq_hub_deliveries_total",
        List.fold_left (fun acc nm -> acc + delivered nm) 0 names,
        List.fold_left (fun acc ev -> acc + hears ev) 0 s.trace );
      ( "loseq_checker_transitions_total{verdict=\"violated\"}",
        read metrics "loseq_checker_transitions_total"
          ~labels:[ ("verdict", "violated") ],
        List.length (List.filter (fun (_, ok) -> not ok) verdicts) );
    ];
  Ok verdicts

(* ---- streaming sessions ----------------------------------------------- *)

let by_name session = List.iter (Session.offer_force session)

(* Resolve each name to its tap id and admit by id, force-draining
   while blocked as [offer_force] does; a name no checker hears goes by
   name. *)
let by_id session =
  List.iter (fun (e : Trace.event) ->
      match Session.resolve session e.name with
      | -1 -> Session.offer_force session e
      | id ->
          let rec admit () =
            match Session.offer_id session id ~time:e.time with
            | `Accepted -> ()
            | `Blocked ->
                ignore (Session.force_drain session);
                admit ()
          in
          admit ())

(* The LSQB path [serve] takes: the encoded stream, [chunk] bytes at a
   time, decoded to (stream id, time) and admitted through
   [Session.wire]. *)
let by_wire ~chunk session input =
  let bytes = Codec.encode_exn input in
  let dec = Codec.Decoder.create () in
  let emit = Session.wire session (Codec.Decoder.name dec) in
  let rec go off =
    if off < String.length bytes then begin
      let len = min chunk (String.length bytes - off) in
      Result.iter_error failwith
        (Codec.Decoder.feed_ids dec ~off ~len bytes ~emit);
      go (off + len)
    end
  in
  go 0;
  Result.iter_error failwith (Codec.Decoder.finish dec)

(* Everything a session exposes about how it admitted a stream: the
   report, the violation hooks in order, the counters and the tap's
   emission count. *)
let observe ~lateness ~window suite admit input =
  let session = Session.create ~lateness ~window suite in
  let hooks = ref [] in
  Session.on_violation session (fun ~name v -> hooks := (name, v) :: !hooks);
  admit session input;
  let report = Session.finalize session in
  ( Report.summary_strings report,
    List.rev !hooks,
    Session.stats session,
    Tap.count (Hub.tap (Session.hub session)) )

(* [admit] observes exactly what [offer_force] observes on the same
   input, through a window of 1-3 (forced drains) and at lateness 0 as
   well (on the arrival order, late events dropped). *)
let same_admission s admit input =
  List.iter
    (fun lateness ->
      if
        observe ~lateness ~window:s.window s.suite by_name input
        <> observe ~lateness ~window:s.window s.suite admit input
      then post "admission differs from offer_force at lateness %d" lateness)
    (List.sort_uniq compare [ 0; s.lateness ])

let streamed ?metrics ?trace admit input s =
  let session = Session.create ?metrics ?trace ~lateness:s.lateness s.suite in
  admit session input;
  let report = Session.finalize ~final_time:s.final_time session in
  if (Session.stats session).dropped_late <> 0 then
    post "dropped an event jittered within the lateness";
  passed_of (Report.summary report)

(* LSQB refuses a non-chronological stream, so the wire gets the
   trace. *)
let wire s =
  let admit = by_wire ~chunk:s.chunk in
  same_admission s admit s.trace;
  Ok (streamed admit s.trace s)

let session_observed s =
  let metrics = Metrics.create () in
  let trace = Ring.create ~capacity:256 () in
  let verdicts = streamed ~metrics ~trace by_name s.arrival s in
  check_counters
    [ ( "loseq_events_dispatched_total",
        read metrics "loseq_events_dispatched_total",
        List.length s.arrival ) ];
  Ok verdicts

(* Offer the arrival order up to the cut (reordered events still
   pending), checkpoint through the JSON text, restore into a fresh
   session and continue.  The rendered verdicts are the uninterrupted
   structural monitor's. *)
let checkpoint s =
  let first = Session.create ~lateness:s.lateness s.suite in
  by_name first (List.filteri (fun i _ -> i < s.cut) s.arrival);
  let json =
    match Json.of_string (Json.to_string (Checkpoint.capture first)) with
    | Ok json -> json
    | Error msg -> post "checkpoint JSON invalid: %s" msg
  in
  let second = Session.create ~lateness:s.lateness s.suite in
  Result.iter_error (post "restore at cut %d: %s" s.cut)
    (Checkpoint.restore second json);
  by_name second (List.filteri (fun i _ -> i >= s.cut) s.arrival);
  let report = Session.finalize ~final_time:s.final_time second in
  let reference = Session.create ~backend:direct s.suite in
  by_name reference s.trace;
  let uninterrupted = Session.finalize ~final_time:s.final_time reference in
  let rendered r = List.map unlocated (Report.summary_strings r) in
  if rendered report <> rendered uninterrupted then
    post "rendered verdicts differ from the uninterrupted run";
  Ok (passed_of (Report.summary report))

(* ---- speculative, sharded --------------------------------------------- *)

(* Settled verdicts of the speculative engine on the arrival order:
   nothing jittered within the lateness is dropped, and a verdict never
   changes once settled. *)
let ooo s =
  let settled = Hashtbl.create 4 in
  let notice = function
    | Engine.Settled { label; verdict; _ } ->
        if not (Hashtbl.mem settled label) then
          Hashtbl.add settled label (Backend.passed verdict)
    | Engine.Violation _ | Engine.Retracted _ -> ()
  in
  let eng =
    Engine.create ~notice ~lateness:s.lateness (Suite.entries_of s.suite)
  in
  let dropped =
    List.length
      (List.filter (fun e -> Engine.offer eng e = `Dropped_late) s.arrival)
  in
  Engine.finalize ~final_time:s.final_time eng;
  if dropped <> 0 || (Engine.stats eng).dropped_late <> 0 then
    post "dropped %d events jittered within the lateness" dropped;
  let verdicts = passed_of (Engine.report eng) in
  List.iter
    (fun (label, ok) ->
      match Hashtbl.find_opt settled label with
      | Some first when first <> ok ->
          post "%s settled %b, then ended %b" label first ok
      | _ -> ())
    verdicts;
  Ok verdicts

(* The planner's plan must be certified; hosted replay never moves
   kernel time back, so a non-chronological arrival order is refused. *)
let sharded s =
  let plan = Shard.analyze ~shards:s.shards (Suite.entries_of s.suite) in
  if not plan.Shard.certified then post "planner emitted an uncertified plan";
  let plan = Array.to_list plan.Shard.shards in
  let run () = Sharded.run ~final_time:s.final_time ~plan s.suite s.arrival in
  if Trace.is_chronological s.arrival then Ok (run ())
  else
    match run () with
    | exception Invalid_argument msg -> Error msg
    | _ -> post "accepted a non-chronological trace"

(* ---- the registry ----------------------------------------------------- *)

let modes =
  let per_checker = hub ~engine:false in
  [
    mode "batch" (fun s -> Ok (batch Backend.flat_views s));
    mode "batch/direct" (fun s -> Ok (batch direct s));
    mode "batch/per-view flat" (fun s ->
        lockstep s;
        Ok (batch (Backend.per_pattern Backend.flat) s));
    mode "batch/psl" psl;
    mode "batch+metrics" batch_metrics;
    mode "hub" (hub ~engine:true Backend.flat_views);
    mode "hub/direct" (per_checker direct);
    mode "hub/per-view flat" (per_checker (Backend.per_pattern Backend.flat));
    mode "hub+obs" hub_observed;
    mode "session" (fun s -> Ok (streamed by_name s.arrival s));
    mode "session/id" (fun s ->
        same_admission s by_id s.arrival;
        Ok (streamed by_id s.arrival s));
    mode "session+obs" session_observed;
    mode "wire" wire;
    mode "checkpoint" checkpoint;
    (* the lateness certificate and the shard planner run static
       analyses per sample *)
    mode ~samples:1000 "ooo" ooo;
    mode ~samples:500 "sharded" sharded;
  ]

(* ---- random samples --------------------------------------------------- *)

(* Every mode gets its own qcheck test over the same generator and the
   same seed, so all modes see the same samples (a mode running fewer
   sees the first ones), and a failure shrinks and names one mode. *)
let random_case mode =
  qtest ~count:mode.samples
    (mode.name ^ " = Semantics.holds")
    gen_sample print_sample
    (fun s ->
      match verify mode s with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "mode %s: %s" mode.name msg)

(* ---- every short word ------------------------------------------------- *)

(* Every word up to [max_len] over the alphabet of [p], unit-spaced, one
   entry, judged well after its end; every mode runs on every word. *)
let exhaustive p max_len =
  let alpha = Name.Set.elements (Pattern.alpha p) in
  let rec words k =
    if k = 0 then [ [] ]
    else
      []
      :: List.concat_map
           (fun w -> List.map (fun a -> a :: w) alpha)
           (words (k - 1))
  in
  let suite = [ { Suite.label = "p"; pattern = p; line = 1 } ] in
  List.iter
    (fun word ->
      let trace = Trace.of_names word in
      let s =
        {
          suite;
          trace;
          arrival = trace;
          lateness = 0;
          cut = List.length trace / 2;
          final_time = Trace.end_time trace + 1_000;
          shards = 1;
          window = 1;
          chunk = 3;
        }
      in
      List.iter
        (fun mode ->
          match verify mode s with
          | Ok () -> ()
          | Error msg ->
              Alcotest.failf "mode %s: %s@.%s" mode.name msg (print_sample s))
        modes)
    (words max_len)

let exhaustive_case name cases =
  Alcotest.test_case name `Quick (fun () ->
      List.iter (fun (src, n) -> exhaustive (pat src) n) cases)

let () =
  Alcotest.run "oracle"
    [
      ("modes", List.map random_case modes);
      ( "exhaustive",
        [
          exhaustive_case "single range" [ ("a << i", 7); ("a <<! i", 7) ];
          exhaustive_case "bounded range" [ ("a[2,3] <<! i", 7) ];
          exhaustive_case "conjunction" [ ("{a, b} <<! i", 7) ];
          exhaustive_case "disjunction" [ ("{a | b} <<! i", 7) ];
          exhaustive_case "two fragments" [ ("a < b <<! i", 7) ];
          (* deadline large enough that only the shape matters *)
          exhaustive_case "timed shape"
            [ ("a => b within 1000", 7); ("a => b < c within 1000", 6) ];
          (* deadline 0: the conclusion must be simultaneous with the
             premise's end, so with unit-spaced timestamps every round
             trips the deadline *)
          exhaustive_case "timed zero deadline" [ ("a => b within 0", 5) ];
        ] );
    ]
