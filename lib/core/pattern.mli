(** Abstract syntax of loose-ordering patterns (paper, Fig. 3).

    The two root patterns are the {e antecedent requirement}
    [(P << i, b)] and the {e timed implication constraint} [(P => Q, t)].
    Both are built from {e loose-orderings} [F1 < ... < Fq], which are
    sequences of {e fragments}, which are unordered collections of
    {e ranges} [n[u,v]].

    Constructors in this module perform no global validation; use
    {!Wellformed.check} (or {!Monitor.create}, which checks) before
    interpreting a pattern.  Local impossibilities ([u < 1], [u > v],
    empty fragment, ...) are still rejected eagerly because no meaning
    exists for them at all. *)

type range = private { name : Name.t; lo : int; hi : int }
(** [n[u,v]]: between [lo] and [hi] consecutive occurrences of [name],
    with [1 <= lo <= hi]. *)

type connective =
  | All  (** [∧] — every range of the fragment must contribute a block *)
  | Any  (** [∨] — at least one range must contribute a block *)

type fragment = private { ranges : range list; connective : connective }
(** [({R1..Rn}, ⊕)]: one contiguous block per contributing range, blocks
    concatenated in any order. *)

type ordering = fragment list
(** [F1 < ... < Fq]: fragment blocks concatenated in this exact order. *)

type antecedent = private {
  body : ordering;  (** [P] *)
  trigger : Name.t;  (** [i] *)
  repeated : bool;  (** [b] — each [i] needs its own fresh [P] *)
}

type timed = private {
  premise : ordering;  (** [P] *)
  conclusion : ordering;  (** [Q] *)
  deadline : int;  (** [t], in simulation time units (>= 0) *)
}

type t = Antecedent of antecedent | Timed of timed

(** {1 Constructors} *)

val range : ?lo:int -> ?hi:int -> Name.t -> range
(** [range ~lo ~hi n] is [n[lo,hi]]; both bounds default to [1].
    Raises [Invalid_argument] unless [1 <= lo <= hi]. *)

val exactly : int -> Name.t -> range
(** [exactly k n] is [n[k,k]]. *)

val fragment : ?connective:connective -> range list -> fragment
(** [fragment ranges] is a fragment; [connective] defaults to [All].
    Raises [Invalid_argument] on an empty range list. *)

val single : Name.t -> fragment
(** [single n] is [({n[1,1]}, ∧)] — the common one-name fragment. *)

val antecedent : ?repeated:bool -> ordering -> trigger:Name.t -> t
(** [antecedent body ~trigger] is [(body << trigger, repeated)];
    [repeated] defaults to [false].
    Raises [Invalid_argument] on an empty ordering. *)

val timed : ordering -> ordering -> deadline:int -> t
(** [timed p q ~deadline] is [(p => q, deadline)].
    Raises [Invalid_argument] on an empty ordering or negative deadline. *)

val map_ranges : ?trigger:(Name.t -> Name.t) -> (range -> range) -> t -> t
(** [map_ranges ?trigger f p] is [p] with every range [r] replaced by
    [f r], applied in syntactic order (premise before conclusion), and
    an antecedent's trigger [i] by [trigger i] (default: kept).
    Connectives, repetition and deadline are kept. *)

(** {1 Alphabets}

    [alpha_*] is the set [α] of interface names appearing in a construct. *)

val alpha_range : range -> Name.Set.t
val alpha_fragment : fragment -> Name.Set.t
val alpha_ordering : ordering -> Name.Set.t
val alpha : t -> Name.Set.t
(** [alpha p] includes the trigger of an antecedent. *)

(** {1 Structure accessors} *)

val body_ordering : t -> ordering
(** The ordering a monitor recognizes round by round: [P] for an
    antecedent, [P] concatenated with [Q] for a timed implication
    (Section 5: "concatenate P and Q"). *)

val premise_length : t -> int
(** Number of fragments belonging to [P] inside {!body_ordering}
    (equals [List.length (body_ordering p)] for an antecedent). *)

val fragment_count : t -> int
val range_count : t -> int
val name_count : t -> int
(** [name_count p] is [Σ_F |α(F)|] over the fragments of
    {!body_ordering} (the trigger is not counted). *)

val max_fragment_width : t -> int
(** [maxᵢ |α(Fᵢ)|] — the paper's Drct time-complexity parameter. *)

val max_hi : t -> int
(** [max vᵢ] over all ranges — the paper's counter-width parameter. *)

(** {1 Pretty-printing, equality} *)

val equal_range : range -> range -> bool
val equal : t -> t -> bool
val pp_range : Format.formatter -> range -> unit
val pp_fragment : Format.formatter -> fragment -> unit
val pp_ordering : Format.formatter -> ordering -> unit
val pp : Format.formatter -> t -> unit
(** Prints the concrete syntax accepted by {!Parser}. *)

val to_string : t -> string
