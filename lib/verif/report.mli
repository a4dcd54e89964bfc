(** Run reports: verdicts and coverage for a set of checkers. *)

type t

val create : unit -> t
val add : t -> Checker.t -> unit

val finalize : t -> unit
(** {!Checker.finalize} every checker. *)

val all_passed : t -> bool
val failures : t -> Checker.t list

val summary : t -> (string * Loseq_core.Backend.verdict) list
(** [(name, verdict)] per checker, in report order. *)

val summary_strings : t -> (string * string) list
(** Like {!summary} with verdicts rendered
    ({!Loseq_core.Backend.verdict_to_string}, full diagnostic text) —
    the comparison currency of the checkpoint-equivalence tests: two
    runs are equivalent iff their summaries are equal. *)

val pp : Format.formatter -> t -> unit
val print : t -> unit
(** [pp] on stdout. *)
