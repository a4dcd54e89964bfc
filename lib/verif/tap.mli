(** Observation taps.

    A tap is the wiring between a design and its assertion checkers
    (Fig. 1): components {!emit} named interface events, and each
    subscriber (a monitor host, a provenance ring, a latency collector)
    hears only the names it subscribed to, in emission order, and
    receives the current simulation time of each.  The tap builds an
    event record only to keep the whole trace ([record], see
    {!trace}). *)

open Loseq_core
open Loseq_sim

type t

val create : ?record:bool -> Kernel.t -> t
(** [record] (default true) keeps the full trace in memory. *)

val kernel : t -> Kernel.t

val emit : t -> string -> unit
(** [emit tap "set_irq"] — observe one interface event now. *)

val emit_name : t -> Name.t -> unit
(** {!lookup}, then {!emit_id}; a name no subscriber listens to is
    counted and recorded, and interns nothing. *)

val port : t -> Name.t -> unit -> unit
(** [port t n] binds an emission port for [n] once — the SystemC idiom
    of binding ports at elaboration time.  Calling the returned thunk
    emits one [n] event at the current simulation time, identical to
    {!emit_name} but without re-hashing the name per event ({!intern},
    then {!emit_id}). *)

(** {1 Dense ids}

    Every name with a subscriber is interned into a dense id,
    [0, 1, ...] in order of first subscription.  A host that resolves
    its names once (a wire decoder's stream ids, a port) emits by id and
    never hashes a name per event. *)

val intern : t -> Name.t -> int
(** The id of [n], interning it (with no subscriber yet) if new. *)

val lookup : t -> Name.t -> int
(** The id of [n], or [-1] if it was never interned: then no
    subscriber listens to it. *)

val name : t -> int -> Name.t
(** The name interned as [id]. *)

val emit_id : t -> int -> unit
(** Observe one event of the name interned as [id] now: the emission
    {!emit_name} makes, without the lookup. *)

val subscribe_name : t -> Name.t -> (int -> unit) -> unit
(** [subscribe_name t n f] calls [f time] for every event named [n],
    with its time in ps — alphabet routing: the name is interned once
    into the tap's dense id space and an emission reaches only the
    subscribers registered for the emitted name, synchronously, in
    subscription order.  The name is the one subscribed to, so none is
    passed. *)

val trace : t -> Trace.t
(** Events recorded so far (empty when [record] is false). *)

val count : t -> int
(** Number of events emitted so far (counted even when not
    recording). *)

val now_ps : t -> int
