(** Event hubs: many checkers on one tap, alphabet-routed.

    The hub is the hosting layer for monitor backends: a single
    property is [add (create tap) pattern], a whole suite
    {!Suite.attach_hub}.  Both go through {!host_suite}, which hosts
    views of one flat engine engine-direct ({!host_flat}: one tap
    subscription per interned name steps the engine's dispatch row)
    and any other backend — the reference monitors [direct] and
    [psl] — one checker at a time, one tap subscription per alphabet
    name delivering through {!Checker.deliver}.  Two properties make it
    cheap:

    - {e alphabet routing}: each emitted event reaches only the
      checkers whose pattern alphabet contains its name.  A tap
      carrying [k] checkers with disjoint alphabets does {e one}
      monitor step per event, not [k] — the hosted realization of the
      paper's Θ(max|α(Fᵢ)|) per-event cost;
    - {e a merged deadline wheel}: a single kernel timeout parked at
      the minimum of all checkers' [next_deadline]s (a lazy min-heap),
      instead of one timeout per timed checker.  Deadline-only
      violations — no trailing event — are still reported the moment
      they elapse. *)

open Loseq_core

type t

val create : ?metrics:Loseq_obs.Metrics.t -> ?trace:Loseq_obs.Trace.t -> Tap.t -> t
(** [metrics] (default {!Loseq_obs.Metrics.noop}) attaches runtime
    telemetry when live: [loseq_events_dispatched_total] (one per tap
    emission), [loseq_hub_deliveries_total{name=..}] (routed checker
    deliveries), [loseq_checker_transitions_total{verdict=..}],
    [loseq_hub_wheel_depth] (refreshed on deadline activity and sampled
    dispatches), [loseq_hub_deadline_firings_total] and the
    sampled [loseq_hub_dispatch_ns] latency histogram; hosted backends
    additionally count [loseq_backend_steps_total{backend=..}], and an
    engine-direct flat host ({!host_flat}) its recognizer touches in
    [loseq_flat_recognizer_steps_total]
    ({!Loseq_core.Flat.recognizer_steps}).  With
    the noop default none of this is registered or subscribed — the
    dispatch path is unchanged.

    [trace] (default {!Loseq_obs.Trace.noop}) attaches the flight
    recorder when live, on the ["hub"] track: [dispatch] spans on the
    latency-sampled path (reusing its clock reads, so tracing adds no
    clock reads of its own), [deadline_fire] instants (argument: the
    missed deadline) and [wheel_depth] counter samples. *)

val add :
  ?backend:Backend.suite_factory ->
  ?name:string ->
  ?latency_sample_rate:int ->
  t ->
  Pattern.t ->
  Checker.t
(** Host one property: {!host_suite} on the one entry [(name,
    pattern)].  [name] defaults to the pattern's text; [backend] to
    {!Backend.flat_views}, so the property runs on an engine of its
    own, stepped engine-direct (wrap a per-pattern factory in
    {!Backend.per_pattern}).  [latency_sample_rate] (default 64,
    rounded up to a power of two) samples one delivery in N into
    [loseq_hub_dispatch_ns] and the dispatch spans; [Invalid_argument]
    when [< 1].  Raises {!Wellformed.Ill_formed} (and whatever the
    factory raises). *)

val host_suite :
  ?latency_sample_rate:int ->
  t ->
  Backend.suite_factory ->
  (string * Pattern.t) list ->
  Checker.t list
(** Host a labelled suite, alphabet-routed: the one place that picks
    the hosting.  When the factory returns views of one flat engine
    compiled over exactly these labels, in order, the engine is hosted
    with {!host_flat}; otherwise each backend is hosted as one checker
    named by its label, one subscription per alphabet name delivering
    through {!Checker.deliver}.  Returns the checkers in entry
    order. *)

val host_flat :
  ?latency_sample_rate:int -> t -> Flat.t -> Backend.t array -> Checker.t list
(** Host a whole flat suite engine directly: one tap subscription per
    interned name walks the engine's dispatch row ({!Loseq_core.Flat.step_name})
    instead of one closure per (checker, alphabet-name).  [views] must
    be the per-checker backends of {e that} engine
    ({!Loseq_core.Backend.flat_views} or
    {!Loseq_core.Backend.flat_engine_views}); the returned checkers (entry
    order, also appended to {!checkers}) carry reports, finalization
    and violation hooks — verdict decisions reach them through the
    engine's notify callback, which also counts their completed rounds.
    These checkers never see individual deliveries: their
    [events_seen], coverage name counts,
    [loseq_hub_deliveries_total{name=..}] and
    [loseq_backend_steps_total{backend=flat}] are read from one
    emission count per name, one delivery per listening checker per
    emission, as per-checker hosting counts them.  They have no state coverage
    (the flat engine exposes no recognizer states).  The deadline
    wheel re-arms only the checkers the engine marked
    ({!Loseq_core.Flat.drain_deadlines}).  {!host_suite} takes this
    path for views of one shared engine. *)

val tap : t -> Tap.t

val engine : t -> Flat.t option
(** The flat engine this hub hosts engine-direct ({!host_flat}), when
    it hosts exactly one and no other checker — then the engine's
    state is the whole hub's monitor state.  Checkpoints read and
    write only this engine: a hub without one (several {!add}s, or a
    backend hosted one checker at a time) cannot be checkpointed. *)

val checkers : t -> Checker.t list
(** In {!add} order. *)

val size : t -> int

val on_violation : t -> (Checker.t -> Loseq_core.Diag.violation -> unit) -> unit
(** Attach a violation hook to every checker currently hosted — the
    incremental-report path a streaming session uses to surface
    violations the moment they happen (each checker still reports at
    most once). *)

val resync : t -> unit
(** Re-read every hosted checker's [next_deadline] and re-park the
    merged deadline wheel — required after the hosted engine's state
    was overwritten externally (checkpoint resume).  Deadlines already
    in the past expire immediately.  Counters need no re-baselining:
    {!host_flat} counts this process's emissions, which a restore does
    not move. *)

val wheel_consistent : t -> bool
(** The merged wheel's invariant: every hosted checker with a pending
    deadline is armed at exactly that deadline and present in the heap,
    and every other checker is unarmed.  Holds between deliveries; a
    property tests assert it after every event. *)

val finalize : t -> unit
(** {!Checker.finalize} every checker at the current simulation time. *)

val report : t -> Report.t
(** A fresh report over all hosted checkers, in {!add} order. *)

val all_passed : t -> bool
