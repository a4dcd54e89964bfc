(** Violation diagnostics reported by monitors. *)

type reason =
  | Before_name  (** a name of an earlier fragment re-occurred ([B]) *)
  | After_name  (** a name of a later fragment occurred too early ([Af]) *)
  | Overflow of Pattern.range  (** more than [hi] consecutive occurrences *)
  | Underflow of Pattern.range  (** block left before [lo] occurrences *)
  | Reentered of Pattern.range  (** a second block for the same range *)
  | Missing of Pattern.range  (** [∧]-range absent when the fragment stopped *)
  | Empty_fragment  (** [∨]-fragment contributed no block at all *)
  | Trigger_early  (** antecedent trigger with [P] not yet recognized *)
  | Deadline_miss of { started : int; deadline : int; now : int }
      (** [Q] not finished when the deadline elapsed *)
  | Late_conclusion of { deadline : int; at : int }
      (** an event of [Q]'s occurrence arrived after the deadline *)
  | Foreign of Name.t  (** non-alphabet event (strict mode only) *)
  | Formula_falsified
      (** the residual PSL obligation became [False] (ViaPSL backend;
          no finer structural diagnosis is available there) *)

type violation = {
  name : Name.t option;  (** offending event ([None] for timeouts) *)
  time : int;  (** simulation time of the violation *)
  index : int;  (** ordinal of the offending event, [-1] for timeouts *)
  fragment : int;  (** 0-based active fragment when the violation occurred *)
  reason : reason;
}

val add_reason : Buffer.t -> reason -> unit
(** Appends the reason's one-line text, e.g. [required range a[1,2]
    never occurred]. *)

val add_violation : Buffer.t -> violation -> unit
(** Appends [violation at t=T[ on NAME (event #I)], fragment F: REASON].
    Every rendering of a violation goes through this one writer. *)

val violation_to_string : violation -> string

val pp_reason : Format.formatter -> reason -> unit
(** {!add_reason}'s text, as one string. *)

val pp_violation : Format.formatter -> violation -> unit
(** {!violation_to_string} in an [h] box. *)

val equal_reason : reason -> reason -> bool
