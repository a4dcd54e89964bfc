(** Bounded rollback journal for the speculative engine.

    The journal is the engine's event memory: the window of
    suite-alphabet events that a late arrival could still be inserted
    among, in timestamp order, each held as its engine name id ([gid])
    and its time in two int arrays — no event record, no pointer.
    Everything older lives in the engine's frontier: {!pop_before}
    hands the events stamped before the watermark over to it, so the
    journal never holds more than the window the lateness bound leaves
    open.

    {b Bound.}  After every offer the engine makes, the journal holds
    at most the suite-alphabet events offered, not dropped, and stamped
    at or after the watermark [max_seen - lateness]. *)

type t

val create : unit -> t

val length : t -> int
(** Number of live events. *)

val gid : t -> int -> int
val time : t -> int -> int
(** [gid t i] and [time t i] describe the [i]-th live event,
    [0 <= i < length t]; raise [Invalid_argument] outside it. *)

val append : t -> gid:int -> time:int -> unit
(** Add an in-order event at the head. *)

val insertion_point : t -> time:int -> int
(** First position whose event is stamped strictly later than [time] —
    where a late event at [time] lands, keeping ties stable (the late
    arrival goes after existing equal-time events). *)

val insert : t -> at:int -> gid:int -> time:int -> unit
(** Splice a late event in at position [at]. *)

val pop_before : t -> time:int -> (int -> int -> unit) -> unit
(** [pop_before t ~time f] removes every event stamped strictly before
    [time], oldest first, handing each to [f gid time]. *)
