(** Streaming monitor sessions: a property suite hosted live.

    The batch entry points ([loseq check]/[suite]) need the whole trace
    in memory before a monitor steps; a session consumes events as they
    are produced.  Internally it is the thinnest possible shell around
    the machinery that already exists: a private {!Loseq_sim.Kernel}
    advanced to each event's timestamp (so the hub's merged deadline
    wheel fires deadline-only violations exactly as in a simulation), a
    {!Loseq_verif.Tap} with recording off, and a {!Loseq_verif.Hub}
    hosting one checker per suite entry — all stream mechanics live
    here, none in the monitors (the Backes et al. observer-hosting
    discipline).

    Between the caller and the hub sits a {!Reorder} buffer: events up
    to [lateness] ticks out of order are re-sorted; later ones are
    counted as {!stats}[.dropped_late] and discarded.  The buffer is
    bounded by [window]: when it fills, {!offer} reports [`Blocked]
    without consuming the event, and the caller chooses — wait for the
    watermark to advance (it cannot, without new events), or trade
    reorder margin for progress with {!force_drain}.  {!offer_force}
    packages the usual policy. *)

open Loseq_core
open Loseq_verif

type t

val create :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?backend:Backend.suite_factory ->
  ?latency_sample_rate:int ->
  ?lateness:int ->
  ?window:int ->
  Suite.t ->
  t
(** [backend] is {!Suite.attach_hub}'s: {!Backend.flat_views} by
    default, one shared engine stepped engine-direct — the only hosting
    {!Checkpoint} supports; [lateness] defaults to [0] (strictly
    chronological input expected); [window] to [1024].  A live
    [metrics] sink (default noop) is threaded to the {!Loseq_verif.Hub}
    and the {!Reorder} buffer, so one session exports the full hub +
    reorder instrument set; a live [trace] flight recorder (default
    noop) likewise — hub dispatch spans and deadline instants, reorder
    admission instants, plus a [stall] span on the ["ingest"] track
    around every backpressure force-drain.  [latency_sample_rate] tunes
    the hub's dispatch-latency sampling (default 64).  Raises
    {!Loseq_core.Wellformed.Ill_formed} and whatever the factory
    raises. *)

val offer : t -> Trace.event -> [ `Accepted | `Blocked ]
(** Feed one event: {!resolve} its name, then admit it as {!offer_id}
    does.  [`Accepted]: consumed — delivered now, buffered, or counted
    dropped-late.  [`Blocked]: {e not} consumed, the pending window is
    full. *)

val force_drain : t -> bool
(** Deliver the oldest pending event even though its watermark has not
    passed (counted in {!stats}[.forced]); [false] if nothing was
    pending. *)

val offer_force : t -> Trace.event -> unit
(** [offer], force-draining until accepted — the standard server
    policy under backpressure. *)

(** {1 Admission by id}

    A host that knows its names up front resolves each one once to the
    session tap's dense id ({!Loseq_verif.Tap.lookup}) and admits
    [(id, time)] pairs.  Every admission — these, {!offer} and
    {!offer_force} — goes through one core: in order with lateness 0,
    the event reaches the engine as ints (no name hashing, no event
    record); on the reorder path the event is
    built from the tap's name table only to be queued.  Backpressure,
    forced drains and every counter behave the same on both entry
    points. *)

val resolve : t -> Loseq_core.Name.t -> int
(** The tap id of a name some checker hears, or [-1]: such a name is
    still counted and advances time, so admit it through {!offer}.
    Stable once the session is created and its observers (such as a
    {!Loseq_verif.Provenance} recorder) are attached. *)

val offer_id : t -> int -> time:int -> [ `Accepted | `Blocked ]
(** {!offer} of the name with tap id [id].  Raises [Invalid_argument]
    on a negative [id]. *)

val wire : t -> (int -> Loseq_core.Name.t) -> int -> int -> unit
(** [wire t name] is the [emit] callback of a stream decoder —
    {!Codec.Decoder.feed_ids} or {!Loseq_core.Trace_io.Csv.feed} — that
    [serve] uses, [name] the decoder's own id-to-name map: [wire t name
    sid time] admits one event as {!offer_force} would, mapping the
    stream id [sid] to its tap id once, at first use
    ({!by_stream_id}).  [name] is read again per event only for a name
    no checker hears. *)

val by_stream_id : (int -> 'a) -> int -> 'a
(** [by_stream_id resolve] memoizes [resolve] on stream ids, for a
    host that maps a decoder's ids to its own: each id is resolved
    once, at first use, in a growable table that stays within twice
    the largest id used (and so within twice the decoder's own name
    table). *)

val flush : t -> unit
(** Deliver everything pending, in timestamp order. *)

val finalize : ?final_time:int -> t -> Report.t
(** {!flush}, advance time to [final_time] (default: the last
    timestamp seen — firing any deadline that elapses on the way), and
    finalize every checker.  The session can keep receiving events
    afterwards, but verdicts are already decided. *)

(** {1 Observation} *)

type stats = {
  accepted : int;  (** events consumed by {!offer} *)
  delivered : int;  (** events released into the hub, in order *)
  reordered : int;  (** out-of-order arrivals absorbed *)
  dropped_late : int;  (** arrivals beyond the lateness bound *)
  forced : int;  (** backpressure force-drains *)
}

val stats : t -> stats
val position : t -> int
(** [= (stats t).accepted] — the stream position a checkpoint records
    and a resumed producer skips to. *)

val on_violation : t -> (name:string -> Diag.violation -> unit) -> unit
(** Incremental reporting: called the moment any hosted checker first
    violates, with the suite entry name. *)

val all_passed : t -> bool

val reorder_certificate :
  ?budget:int -> t -> Loseq_analysis.Robust.certificate
(** The hosted suite's lateness-robustness certificate
    ({!Loseq_analysis.Robust}): the maximal reorder window that
    provably cannot flip any verdict.  [budget] bounds the per-pattern
    state exploration (default [20000] — deliberately below the
    analyzer's default so that consulting the certificate at session
    startup stays cheap; an undecided entry certifies [Finite 0]
    conservatively). *)

(** {1 Checkpoint plumbing} (used by {!Checkpoint}) *)

val suite : t -> Suite.t
val hub : t -> Hub.t
val kernel : t -> Loseq_sim.Kernel.t
val reorder : t -> Reorder.t
val lateness : t -> int
val window : t -> int
val now : t -> int

val restore_counters :
  t -> accepted:int -> delivered:int -> forced:int -> unit
