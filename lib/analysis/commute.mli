(** Pairwise commutation analysis of a monitor automaton.

    For every unordered pair of alphabet names [(a, b)] this module
    decides, on the exact-counter state space ({!Machine.make}
    [~exact:true], deterministic and in bijection with the concrete
    {!Loseq_core.Compiled} configurations), whether delivering [ab] and
    [ba] from every reachable configuration leads to
    verdict-equivalent states.  Two states are {e verdict-equivalent}
    when no event continuation (followed by finalization) can tell
    them apart on the only observables a hosting layer acts on:
    violated-or-not, and armed-past-deadline-or-not
    ({!Machine.can_time_violate}).  Equivalence is computed once for
    the whole explored state set by Hopcroft's partition refinement
    ({!refine}) seeded with that two-bit observable, so each
    [(state, pair)] query is a table lookup and every complete
    exploration is decided.

    {b Clamped ranges.}  {!analyze} explores the pattern with every
    range [[u,v]] clamped to [[min u 3, min u 3 + min (v-u) 3]]
    ({!clamp}).  A counter is compared only with [u] and [v], counts
    one run of its own name, and an adjacent swap moves a run by one
    event, so the clamped machine has the same race pairs, commuting
    pairs and [time_sensitive] as the real one (DESIGN.md, "Clamped
    range counters") at a state count independent of the bounds.  Its
    witnesses are re-expanded to the real bounds (each run of a
    range's name stretched to the least real length in its region)
    and replayed on the real pattern.  A re-expanded witness grows
    with the real bounds, so its length is worked out first, and a
    pair whose twin traces would exceed the budget is left undecided.

    A pair that fails the test at some reachable state is {e racy}:
    the order of [a] and [b] is verdict-relevant there, and the
    analysis concretizes the proof into {e twin traces} — two runs one
    adjacent swap apart (same names, same timestamp slots) whose suite
    verdicts differ, verified by replay on the compiled monitor.  A
    pair that passes at every reachable state {e commutes}: no
    adjacent swap of an [a] against a [b] can ever flip the verdict —
    the pattern-level fact the lateness-robustness certificate
    ({!Robust}) is built from.

    Soundness of the budget: racy verdicts carry replayed witnesses
    and are valid even when exploration was truncated; commuting
    claims are only made when [complete] is set. *)

open Loseq_core

type race = {
  a : Name.t;
  b : Name.t;  (** the racy unordered pair, [a < b] in {!Name.compare} *)
  trace_ab : Trace.t;  (** prefix, [a], [b], distinguishing suffix *)
  trace_ba : Trace.t;
      (** the same timestamp slots with [a] and [b] swapped — one
          adjacent transposition apart from [trace_ab] *)
  ab_passes : bool;  (** verdict of [trace_ab]; [trace_ba] decides the
                         opposite (verified by replay) *)
  time_divergence : bool;
      (** the verdicts differ only at finalization time (a deadline
          fires on one side): replay with
          [~final_time:(deadline + 1)] *)
}

type result = {
  pattern : Pattern.t;
  complete : bool;
      (** exploration within budget, and every witness search and
          twin trace too: absence of a race means the pair really
          commutes *)
  races : race list;  (** one (shortest-prefix) witness per racy pair *)
  commuting : (Name.t * Name.t) list;
      (** pairs certified to commute (empty unless [complete]) *)
  time_sensitive : bool;
      (** timed only: some reachable configuration is armed with the
          conclusion incomplete — the deadline verdict is live *)
}

val analyze : ?budget:int -> Pattern.t -> result
(** [budget] bounds the exploration of the {!clamp}ed pattern, each
    witness search, and the length of each re-expanded twin trace
    (default 200000 states or events).  A race whose twin traces would
    be longer leaves its pair undecided and clears [complete]; the
    length is worked out before any trace is built, so a range bound
    of 10^9 costs no more than one of 10^3.  Raises
    {!Loseq_core.Wellformed.Ill_formed}, and [Failure] if a witness
    fails to replay (an abstraction soundness bug, as in
    {!Witness.concretize}).

    The analysis runs on the pattern's {!Canon} form and is cached per
    (canonical pattern, budget) in a {!Memo} result table: renamed
    copies of one pattern are analysed once, and each gets the result
    with its own names back. *)

val analyze_exact : ?budget:int -> Pattern.t -> result
(** {!analyze} on the real bounds, one state per counter value: the
    reference the clamp is tested against.  Not cached; witnesses
    need no re-expansion. *)

val clamp : Pattern.t -> Pattern.t
(** Every range [[u,v]] narrowed to [[min u 3, min u 3 + min (v-u) 3]];
    names, fragments and deadline are kept. *)

val refine : n_ids:int -> succ:int array -> int array -> int array
(** [refine ~n_ids ~succ obs] is Hopcroft's coarsest partition of
    states [0 .. n-1] ([n = Array.length obs]) that refines [obs] and
    is compatible with the total successor table
    [succ.(i * n_ids + id)]: [cls.(i) = cls.(j)] iff no event suffix
    leads [i] and [j] to states of different [obs].  Class numbers are
    arbitrary. *)

val successors : 'a Reach.exploration -> int array
(** The successor table of a deterministic exploration, as {!refine}
    reads it: [-1] where the budget cut a successor off; final states
    are their own successors. *)

val final_time_for : Pattern.t -> int option
(** The finalization instant twin traces are decided at:
    [Some (deadline + 1)] for a timed pattern (witness timestamps are
    all zero, so any pending deadline has elapsed by then), [None] for
    an antecedent. *)

(** {1 Cross-checker commutation}

    The per-pattern analysis above decides whether {e one} checker's
    verdict is order-sensitive.  Sharding a suite asks a different
    question: may two {e different} checkers observe the events of a
    shared (or interleaved) alphabet in different relative orders
    without the {e pair} of verdicts changing?  That is commutation on
    the synchronous product (cf. {!Suite_checks.product}) of the two
    exact machines over the union alphabet, observed through the pair
    of per-checker fail bits. *)

type product_race = {
  label_a : string;
  label_b : string;  (** the two suite entries of the product *)
  a : Name.t;
  b : Name.t;  (** the racy unordered union-alphabet pair, [a < b] *)
  trace_ab : Trace.t;
  trace_ba : Trace.t;
      (** twin traces one adjacent transposition apart, as in {!race} *)
  ab_verdicts : bool * bool;
      (** ([label_a] passes, [label_b] passes) on [trace_ab], each
          entry replayed under its own {!final_time_for} *)
  ba_verdicts : bool * bool;
      (** the verdict pair on [trace_ba]; differs from [ab_verdicts]
          (verified by replay) *)
}

type product_result = {
  labels : string * string;
  complete : bool;
      (** product exploration within budget and every cross-relevant
          pair decided *)
  cross_races : product_race list;
      (** one (shortest-prefix) witness per racy cross-relevant pair *)
  cross_commuting : (Name.t * Name.t) list;
      (** cross-relevant pairs certified to commute on the product
          (empty unless [complete]) *)
  shared : Name.t list;  (** the alphabet intersection, sorted *)
}

val analyze_product :
  ?budget:int ->
  string * Pattern.t ->
  string * Pattern.t ->
  product_result
(** [analyze_product (la, pa) (lb, pb)] runs the pairwise test on the
    synchronous product of the two exact machines, restricted to
    {e cross-relevant} pairs: unordered union-alphabet pairs not
    wholly private to one checker (those belong to that checker's own
    {!analyze}).  Budget and failure behaviour as in {!analyze}.  The
    work is on the concrete names (shared names are what it is about)
    and the real bounds (no {!clamp}), so nothing here is cached in
    {!Memo}. *)
