(** Compiled monitors: one pattern on the flat-table engine.

    {!Monitor} keeps the paper's structure literally — one recognizer
    object per range, name sets, classification by set membership.  A
    compiled monitor is a one-checker {!Flat} engine: the pattern is
    compiled once into integer tables (interned names, per-name
    category rows, counter and state slots) so that a step is a
    handful of array reads — the form a deployment inside a simulation
    kernel would actually use.  This module is the single-pattern view
    of that engine (ids are the sorted-alphabet ranks, every call goes
    to checker 0); it has no step code of its own.

    Verdict-level behaviour is identical to {!Monitor} (property-tested
    by the suite); only diagnostics are coarser (reason and position,
    no per-range detail). *)

type verdict = Flat.verdict =
  | Running
  | Satisfied
  | Violated of { reason : Diag.reason; time : int; index : int }

type t

val compile : Pattern.t -> t
(** Raises {!Wellformed.Ill_formed}. *)

val pattern : t -> Pattern.t

val alphabet : t -> Name.Set.t
(** [α(pattern)], computed once at compile time — the routing key a
    hosting layer uses to deliver only relevant events. *)

val id_of_name : t -> Name.t -> int option
(** Interned id, [None] for names outside the alphabet. *)

val step_id : t -> id:int -> time:int -> verdict
(** Fastest path: pre-interned name.  Raises [Invalid_argument] on an
    id out of range. *)

val step : t -> Trace.event -> verdict
(** Interns and delegates to {!step_id}; foreign names are ignored. *)

val check_time : t -> now:int -> verdict

val next_deadline : t -> int option
(** The earliest simulation time at which {!check_time} could report a
    violation — for scheduling a timeout in a simulation host (same
    contract as {!Monitor.next_deadline}). *)

val active_fragment : t -> int
(** 0-based index of the active fragment. *)

val finalize : t -> now:int -> verdict
val verdict : t -> verdict
val reset : t -> unit
(** Back to the initial configuration (monitors are reusable across
    runs without re-compiling). *)

val rounds_completed : t -> int
(** Number of full recognition rounds completed so far: accepted
    body+trigger rounds for an antecedent, minimally recognized
    premise+conclusion rounds for a timed implication.  A property that
    never fails {e and} never completes a round was exercised
    vacuously — the distinction the analyzer's cross-validation tests
    need. *)

val run : Pattern.t -> Trace.t -> verdict
val accepts : ?final_time:int -> Pattern.t -> Trace.t -> bool

(** {1 Reachability accessors}

    Read-only views of the flat tables and of the current
    configuration, for decision procedures over the monitor automaton
    ([Loseq_analysis]): the analyzer re-executes the Fig. 5 step
    function on a counter-interval abstraction of exactly these
    tables, and cross-validates its witnesses by replaying them here. *)

type static = Flat.static = {
  names : Name.t array;  (** interned id → name *)
  owner : int array;  (** id → fragment index, [-1] = terminator-only *)
  terminator : bool array;  (** id → closes the whole ordering *)
  category : Context.category array array;  (** recognizer → id → class *)
  rec_range : Pattern.range array;  (** recognizer → its range *)
  rec_disjunctive : bool array;
  frag_first : int array;  (** fragment → first recognizer index *)
  frag_count : int array;
  fragments : int;  (** [q] *)
  repeated : bool;  (** true also for timed patterns *)
  timed : bool;
  premise_last : int;  (** last premise fragment; [-2] for antecedents *)
  deadline : int;
}

val static : t -> static
(** The compile-time tables (arrays are fresh copies: mutating them
    cannot corrupt the monitor). *)

type rec_state = Flat.rec_state =
  | Idle
  | Waiting
  | Started
  | Counting of int
  | Done

type snapshot = {
  active : int;
  recs : rec_state array;  (** per recognizer, in table order *)
  armed : bool;  (** timed: premise recognized, deadline running *)
  q_done : bool;  (** timed: conclusion minimally recognized *)
  rounds : int;  (** {!rounds_completed} *)
}

val snapshot : t -> snapshot
(** The current configuration ([Running] monitors only carry useful
    snapshots, but the call is always safe). *)

(** {1 Table patches}

    Mutable views of the compiled tables, as fresh patched copies: the
    mutation engine ([Loseq_analysis.Mutate]) perturbs a monitor at the
    table level — retarget a name to another fragment, flip a
    terminator bit, swap a recognizer's category row entry, nudge a
    counter bound or the deadline — without needing a pattern that
    denotes the perturbed automaton.  The original is never modified. *)

type patch = Flat.patch = {
  set_category : (int * int * Context.category) list;
      (** [(recognizer, id, category)] overrides *)
  set_owner : (int * int) list;
      (** [(id, fragment)]; [-1] = terminator-only *)
  set_terminator : (int * bool) list;
  set_lo : (int * int) list;  (** [(recognizer, lo)] *)
  set_hi : (int * int) list;  (** [(recognizer, hi)] *)
  set_deadline : int option;
}

val no_patch : patch
(** The identity patch: [patched t no_patch] is an independent clone of
    [t]'s tables in the initial run state. *)

val patched : t -> patch -> t
(** A fresh monitor whose tables are [t]'s with the patch applied and
    whose run state is initial.  The [pattern] accessor still returns
    the original pattern (a patched table need not be denotable).
    Raises [Invalid_argument] on out-of-range indices, [lo/hi] updates
    that break [1 <= lo <= hi], or a negative deadline. *)
