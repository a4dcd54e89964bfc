(** Observation taps.

    A tap is the wiring between a design and its assertion checkers
    (Fig. 1): components {!emit} named interface events, subscribers
    (monitors, coverage collectors, trace recorders) receive them in
    emission order, stamped with the current simulation time. *)

open Loseq_core
open Loseq_sim

type t

val create : ?record:bool -> Kernel.t -> t
(** [record] (default true) keeps the full trace in memory. *)

val kernel : t -> Kernel.t

val emit : t -> string -> unit
(** [emit tap "set_irq"] — observe one interface event now. *)

val emit_name : t -> Name.t -> unit
(** {!lookup}, then {!emit_id}; a name no per-name subscriber listens
    to is counted, recorded and seen by the whole-trace subscribers,
    and interns nothing. *)

val port : t -> Name.t -> unit -> unit
(** [port t n] binds an emission port for [n] once — the SystemC idiom
    of binding ports at elaboration time.  Calling the returned thunk
    emits one [n] event at the current simulation time, identical to
    {!emit_name} but without re-hashing the name per event ({!intern},
    then {!emit_id}). *)

(** {1 Dense ids}

    Every name with a per-name subscriber is interned into a dense id,
    [0, 1, ...] in order of first subscription.  A host that resolves
    its names once (a wire decoder's stream ids, a port) emits by id and
    never hashes a name per event. *)

val intern : t -> Name.t -> int
(** The id of [n], interning it (with no subscriber yet) if new. *)

val lookup : t -> Name.t -> int
(** The id of [n], or [-1] if it was never interned: then no per-name
    subscriber listens to it. *)

val name : t -> int -> Name.t
(** The name interned as [id]. *)

val emit_id : t -> int -> unit
(** Observe one event of the name interned as [id] now: the emission
    {!emit_name} makes, without the lookup. *)

val subscribe : t -> (Trace.event -> unit) -> unit
(** Subscribers are called synchronously, in subscription order. *)

val subscribe_name : t -> Name.t -> (Trace.event -> unit) -> unit
(** [subscribe_name t n f] calls [f] only for events named [n] — the
    alphabet-routed fast path: the name is interned once into the tap's
    dense id space and [emit] reaches only the subscribers registered
    for the emitted name.  Whole-trace subscribers run first, then the
    per-name subscribers, each group in subscription order. *)

val trace : t -> Trace.t
(** Events recorded so far (empty when [record] is false). *)

val count : t -> int
(** Number of events emitted so far (counted even when not
    recording). *)

val now_ps : t -> int
