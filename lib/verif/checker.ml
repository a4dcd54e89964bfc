open Loseq_core

type t = {
  name : string;
  backend : Backend.t;
  now : unit -> int;  (** the host's clock, for {!finalize} *)
  coverage : Coverage.t;
  mutable events_seen : int;
  counts : (Name.t -> int) option;
      (** per-name deliveries a host made outside {!deliver} *)
  mutable violation_hooks : (Diag.violation -> unit) list;
  mutable violation_reported : bool;
  mutable transition_hook :
    (before:Backend.verdict -> after:Backend.verdict -> unit) option;
}

let make ?name ?(now = fun () -> 0) ?counts backend =
  let name =
    match name with
    | Some n -> n
    | None -> Pattern.to_string backend.Backend.pattern
  in
  let t =
    {
      name;
      backend;
      now;
      coverage = Coverage.create backend.Backend.pattern;
      events_seen = 0;
      counts;
      violation_hooks = [];
      violation_reported = false;
      transition_hook = None;
    }
  in
  (match backend.Backend.states with
  | Some states -> Coverage.observe_states t.coverage (states ())
  | None -> ());
  Option.iter (Coverage.count_from t.coverage) counts;
  t

let report_if_violated t =
  match t.backend.Backend.verdict () with
  | Backend.Violated v when not t.violation_reported ->
      t.violation_reported <- true;
      Coverage.record_violation t.coverage;
      List.iter (fun hook -> hook v) (List.rev t.violation_hooks)
  | Backend.Violated _ | Backend.Running | Backend.Satisfied -> ()

(* Shared post-step accounting for every delivery path. *)
let note t ~before ~after =
  (match (before, after) with
  | Backend.Running, Backend.Satisfied -> Coverage.record_round t.coverage
  | _, (Backend.Running | Backend.Satisfied | Backend.Violated _) -> ());
  (match t.transition_hook with
  | None -> ()
  | Some hook -> (
      (* steady-state steps dominate; only real transitions reach the
         hook so the hot path stays one branch *)
      match (before, after) with
      | Backend.Running, Backend.Running -> ()
      | _ -> hook ~before ~after));
  (match t.backend.Backend.states with
  | Some states -> Coverage.observe_states t.coverage (states ())
  | None -> ());
  report_if_violated t

let deliver t event =
  t.events_seen <- t.events_seen + 1;
  Coverage.observe_event t.coverage event;
  let before = t.backend.Backend.verdict () in
  let after = t.backend.Backend.step event in
  note t ~before ~after

(* Deliveries the host counted itself, over the alphabet. *)
let counted t =
  match t.counts with
  | None -> 0
  | Some count ->
      Name.Set.fold (fun n acc -> acc + count n) t.backend.Backend.alphabet 0

let poll t ~now =
  ignore (t.backend.Backend.check_time ~now);
  report_if_violated t

let next_deadline t = t.backend.Backend.next_deadline ()

let name t = t.name
let pattern t = t.backend.Backend.pattern
let backend t = t.backend
let verdict t = t.backend.Backend.verdict ()

let finalize_at t ~now =
  let verdict = t.backend.Backend.finalize ~now in
  report_if_violated t;
  verdict

let finalize t = finalize_at t ~now:(t.now ())

(* After an external state restore (checkpoint resume, engine-direct
   hosts only): align the bookkeeping with the backend so an
   already-reported violation does not fire the hooks a second time. *)
let restore_meta t ~events_seen =
  t.events_seen <- events_seen - counted t;
  match t.backend.Backend.verdict () with
  | Backend.Violated _ -> t.violation_reported <- true
  | Backend.Running | Backend.Satisfied -> t.violation_reported <- false

(* The backend was stepped outside this checker (engine-level suite
   dispatch): re-read the verdict and report a new violation through
   the hooks exactly once. *)
let sync_external t = report_if_violated t

let passed t = Backend.passed (t.backend.Backend.verdict ())
let on_violation t hook = t.violation_hooks <- hook :: t.violation_hooks
let on_transition t hook = t.transition_hook <- Some hook
let events_seen t = t.events_seen + counted t
let coverage t = t.coverage
let pp_verdict = Backend.pp_verdict
