(** The counter-interval abstraction of a compiled monitor.

    A {!Loseq_core.Compiled} monitor is a finite control structure plus
    one counter per range.  The counters make the configuration space
    huge ([Π (hiᵢ+3)] per {!Loseq_core.Lint.state_estimate}), but the
    step function only ever compares a counter against its range's two
    bounds, so for reachability questions the exact value is irrelevant
    — only which of the intervals [[1,lo-1]], [[lo,hi-1]], [{hi}] it
    lies in.  This module re-implements the Fig. 5 step function over
    that abstraction:

    - {!rclass} replaces (state, counter) by (state, class): exact
      values below [lo], one class for [[lo, hi-1]], one for [hi];
    - stepping is deterministic except for a [Ready] recognizer seeing
      its own name, which may stay [Ready] or cross to [Full] (at most
      two successors per event);
    - the stay alternative never changes the rest of the configuration
      (all other recognizers of the fragment moved on the first event
      already), so stay edges are pure self-loops in the abstract
      graph.

    The abstraction is therefore {e exact} for reachability: every
    abstract path that never repeats a configuration concretizes to a
    real trace (see {!Witness.concretize}), and every concrete run
    projects to an abstract path ({!project}).  Time is abstracted to
    the two booleans the step function actually consults ([armed],
    [q_done]); deadline-crossing violations are represented by
    {!can_time_violate} rather than by edges. *)

open Loseq_core

type rclass =
  | Idle  (** dropped out of a disjunctive fragment, or not yet reached *)
  | Waiting  (** in the active fragment, nothing seen *)
  | Started  (** fragment entered by a sibling's event *)
  | Below of int
      (** counting, counter [< lo] — kept exact so that abstract
          shortest paths to a minimal completion count concrete events
          ({!Checks} measures deadline feasibility with them) *)
  | Ready  (** counting, counter in [[lo, hi-1]] — an Accept succeeds *)
  | Full  (** counting, counter [= hi] — one more own event overflows *)
  | Counting of int
      (** exact mode only: the concrete counter value (see {!make}) *)
  | Done  (** block closed by a sibling, waiting for the fragment *)

type config = {
  active : int;
  recs : rclass array;
  armed : bool;  (** timed: premise recognized, deadline running *)
  q_done : bool;  (** timed: conclusion minimally recognized *)
}

type status = Running of config | Satisfied | Violated of Diag.reason

type state = { status : status; matched : bool }
(** [matched] is sticky: some recognition round completed — the
    terminator accepted for an antecedent, the conclusion minimally
    recognized for a timed implication (mirrors
    {!Loseq_core.Compiled.rounds_completed}[ > 0]). *)

type t

val make : ?exact:bool -> Pattern.t -> t
(** Raises {!Wellformed.Ill_formed}.  With [~exact:true] counters are
    not abstracted at all ({!rclass.Counting}): stepping is fully
    deterministic and configurations are in bijection with the
    concrete monitor's.  Synchronous products need this — two interval
    abstractions stepped side by side lose the correlation between
    counters driven by the same events, producing joint states no real
    trace reaches (e.g. one machine [Full] while the other is still
    [Below]), which hides subsumption and conflicts.  The price is a
    state space proportional to the counter bounds, so exact
    exploration relies on the {!Reach} budget.  Default: [false]. *)

val of_compiled : ?exact:bool -> Compiled.t -> t
(** Abstract machine over a monitor's {e actual} tables
    ({!Loseq_core.Compiled.static}) rather than over a pattern.  For a
    monitor built by {!Loseq_core.Compiled.compile} this is equivalent
    to {!make}; for a table-patched monitor
    ({!Loseq_core.Compiled.patched}) it is the only way to get an
    abstraction, since the patched automaton need not be denotable as a
    pattern.  {!pattern} then returns the pattern of the monitor the
    patch was applied to (advisory only). *)

val pattern : t -> Pattern.t
val timed : t -> bool

val deadline : t -> int
(** The compiled deadline ([0] for untimed patterns) — products
    comparing two timed machines need it to decide whether two armed
    configurations violate at the same instant. *)

val n_ids : t -> int
(** Alphabet size; event ids are [0 .. n_ids-1] in {!Loseq_core.Name}
    order (the {!Loseq_core.Compiled} interning). *)

val name : t -> int -> Name.t
val init : t -> state

val step : t -> state -> int -> state list
(** All abstract successors on event [id] — one or two states;
    [Satisfied] and [Violated] are absorbing. *)

val hash : state -> int
(** Allocation-free, over every field of the state, counters included;
    non-negative.  [equal a b] implies [hash a = hash b]. *)

val equal : state -> state -> bool
(** Structural equality, without allocation. *)

val is_violated : state -> bool
val is_final : state -> bool
(** No successor differs from the state itself. *)

val system : t -> state Reach.system
(** The machine as a transition system for {!Reach.explore}: {!init},
    {!step}, {!is_final}, {!hash} and {!equal}. *)

val can_time_violate : t -> state -> bool
(** A running, armed, not-yet-[q_done] configuration of a timed
    pattern: letting simulation time pass beyond the deadline violates
    ([Deadline_miss]) without any further event. *)

val completable : t -> state -> bool
(** The active fragment is the last one and minimally complete: the
    next terminator closes the round (for a timed pattern this is
    exactly the configuration where [q_done] gets set). *)

val project : t -> Compiled.t -> state
(** Abstract a concrete monitor configuration — the homomorphism the
    exactness claim (and the witness replay tests) are stated with. *)
