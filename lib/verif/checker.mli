(** Assertion checkers: monitor backends hosted in a simulation.

    A checker wraps one {!Loseq_core.Backend} (structural, flat or
    ViaPSL), drives it with observed events, collects coverage and
    reports violations once.  A checker is passive: a host subscribes
    it to a tap, or steps the flat engine behind it and tells it
    ({!sync_external}).  That host is the {!Hub}: its merged
    deadline wheel keeps each timed checker's deadline scheduled in the
    kernel, so a miss is reported the moment it elapses (the
    [sc_time]-based mechanism of the paper's Section 6 monitors).  To
    monitor one property, [Hub.add (Hub.create tap) pattern]. *)

open Loseq_core

type t

(** {1 Hosting primitives}

    Used by {!Hub} (or any custom host); a checker built with {!make}
    is not subscribed anywhere. *)

val make :
  ?name:string ->
  ?now:(unit -> int) ->
  ?counts:(Name.t -> int) ->
  Backend.t ->
  t
(** A detached checker over an existing backend.  [now] is the host's
    clock, consulted by {!finalize} (defaults to constant 0).  [counts]
    is for hosts that step the backend outside the checker
    ({!sync_external}): per alphabet name, the deliveries the host made
    on the checker's behalf.  {!events_seen} and the name counts of
    {!coverage} add them in when read. *)

val deliver : t -> Trace.event -> unit
(** Feed one event (coverage, verdict transitions, violation hooks) —
    how {!Hub.host_suite} delivers to a backend it hosts one checker at
    a time, routed by name. *)

val poll : t -> now:int -> unit
(** Deadline check at time [now] (reports a miss through the hooks). *)

val sync_external : t -> unit
(** The backend was stepped {e outside} this checker — engine-level
    suite dispatch ({!Loseq_core.Flat}) where the shared engine, not
    the checker, executes the monitor step.  Re-reads the verdict and
    reports a new violation through the hooks exactly once; a no-op
    when nothing changed. *)

val next_deadline : t -> int option

(** {1 Results} *)

val name : t -> string
val pattern : t -> Pattern.t
val backend : t -> Backend.t
val verdict : t -> Backend.verdict

val finalize : t -> Backend.verdict
(** Final deadline check at the host's current time; call when the
    simulation is over. *)

val finalize_at : t -> now:int -> Backend.verdict

val passed : t -> bool
(** No violation (after {!finalize}d or mid-run). *)

val on_violation : t -> (Diag.violation -> unit) -> unit
(** Called once, when the backend first reports a violation. *)

val on_transition : t -> (before:Backend.verdict -> after:Backend.verdict -> unit) -> unit
(** Called after a delivered event whose step changed the verdict
    (steady Running-to-Running steps are filtered out; at most one
    hook, the last one set wins) — the telemetry tap for counting
    checker transitions without re-reading the verdict on the hot
    path.  Deadline-driven transitions are not step-driven and arrive
    through {!on_violation} instead. *)

val restore_meta : t -> events_seen:int -> unit
(** After the hosted engine's state was overwritten externally
    (checkpoint resume, {!Loseq_core.Flat.load_blob}): restore the
    delivery count and re-align the reported-violation flag with the
    backend's verdict, so a violation that was already reported before
    the checkpoint does not fire the hooks again. *)

val events_seen : t -> int
(** Events delivered to this checker — with name routing, only the
    events in the pattern's alphabet. *)

val coverage : t -> Coverage.t
val pp_verdict : Format.formatter -> Backend.verdict -> unit
