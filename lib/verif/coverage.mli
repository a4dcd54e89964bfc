(** Coverage of a pattern by the observed stimuli (the "coverage
    improver" corner of Fig. 1).

    Three complementary measures:
    - {e name coverage}: how often each alphabet name was exercised;
    - {e state coverage}: which recognizer states (per fragment) were
      ever inhabited — unvisited states reveal unexercised orderings;
    - {e round coverage}: completed recognition rounds and reported
      violations. *)

open Loseq_core

type t

val create : Pattern.t -> t
val observe_event : t -> Trace.event -> unit
val observe_states : t -> Recognizer.state list list -> unit

val count_from : t -> (Name.t -> int) -> unit
(** Name counts a host keeps itself, added to the observed ones
    whenever they are read — how a host that steps the backend outside
    the checker ({!Hub.host_flat}) fills name coverage without
    per-event work. *)

val record_round : t -> unit
val record_violation : t -> unit

val name_counts : t -> (Name.t * int) list
(** Every alphabet name with its observation count (0 when never
    seen). *)

val names_covered : t -> float
(** Fraction of alphabet names observed at least once. *)

val states_covered : t -> float
(** Fraction of reachable (fragment, state-kind) pairs inhabited, over
    the kinds [waiting], [waiting-started], [counting], [done].
    Unreachable pairs are excluded from the denominator: single-range
    fragments have no "other range started" states, and only the first
    fragment can be [waiting] (later fragments start on the event that
    closed their predecessor). *)

val rounds : t -> int
val violations : t -> int

val visited : t -> (int * string) list
(** The inhabited (fragment index, state kind) pairs, for set-union
    reasoning across runs (see {!Explore}). *)

val reachable : t -> int
(** Size of the denominator of {!states_covered}. *)

val pp : Format.formatter -> t -> unit
