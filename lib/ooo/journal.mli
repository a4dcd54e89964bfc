(** Bounded rollback journal for the speculative engine.

    The journal is the engine's event memory: the sliding window of
    suite-alphabet events that a late arrival could still be inserted
    among, plus a stack of checker-state snapshots anchored at journal
    positions.  A snapshot at position [p] captures the suite state
    after the first [p] journalled events were applied and every
    deadline up to [fired_upto] was fired; restoring it and replaying
    positions [p..] reproduces the live state.

    The journal is polymorphic in the snapshot payload ['snap] — the
    engine stores a copy of its flat engine's state slab
    ({!Loseq_core.Flat.copy_slab}) and one decision point per checker;
    the journal only manages positions, admissibility ([fired_upto])
    and trimming.  Events before the watermark frontier are dropped by
    {!trim} once a qualifying snapshot covers them, which is what keeps
    the window bounded. *)

open Loseq_core

type 'snap entry = {
  mutable pos : int;
      (** Journal position the snapshot is anchored at (state after the
          first [pos] events).  Mutable because {!trim} rebases it when
          the window frontier advances. *)
  epoch : int;  (** Watermark epoch at record time (introspection). *)
  fired_upto : int;
      (** Deadlines with [deadline + 1 <= fired_upto] had already fired
          when the snapshot was taken.  A restore for an insertion at
          time [t] must pick a snapshot with [fired_upto <= t], or it
          would bake in deadline misses the late event may refute. *)
  snap : 'snap;
}

type 'snap t

val create : unit -> 'snap t

(** {1 Event window} *)

val length : 'snap t -> int
(** Number of live (not yet trimmed) events. *)

val get : 'snap t -> int -> Trace.event
(** [get t i] is the [i]-th live event, [0 <= i < length t]. *)

val append : 'snap t -> Trace.event -> unit
(** Add an in-order event at the head. *)

val insertion_point : 'snap t -> time:int -> int
(** First position whose event is stamped strictly later than [time] —
    where a late event at [time] lands, keeping ties stable (the late
    arrival goes after existing equal-time events). *)

val insert : 'snap t -> at:int -> Trace.event -> unit
(** Splice a late event in at position [at].  Snapshots anchored
    strictly above [at] are invalidated (their prefix changed) and
    dropped; snapshots at or below [at] survive. *)

val events : 'snap t -> Trace.event list
(** The live window, oldest first (tests and debugging). *)

(** {1 Snapshots} *)

val record : 'snap t -> epoch:int -> fired_upto:int -> 'snap -> unit
(** Push a snapshot anchored at the current head ([length t]). *)

val snapshots : 'snap t -> int
(** Live snapshot count. *)

val since_snapshot : 'snap t -> int
(** Events appended past the newest snapshot's anchor — the engine's
    snapshot cadence trigger.  [max_int] when no snapshot is live. *)

val restore_point : 'snap t -> at:int -> time:int -> 'snap entry option
(** Latest snapshot usable to replay an insertion at position [at],
    time [time]: the highest-anchored entry with [pos <= at] and
    [fired_upto <= time].  [None] only if the engine broke the
    invariant that a base snapshot always survives. *)

val drop_after : 'snap t -> pos:int -> unit
(** Drop snapshots anchored strictly above [pos] (rollback discards
    everything newer than its restore point). *)

val trim : 'snap t -> watermark:int -> unit
(** Advance the window frontier: find the highest snapshot anchored at
    or below the first position stamped after [watermark] whose
    [fired_upto <= watermark], make it the new base, and drop the
    events and snapshots before it.  No admissible late event (time [>=
    watermark]) can need anything older.  A no-op when no snapshot
    qualifies. *)
