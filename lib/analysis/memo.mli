(** Per-entry memoization of abstract-machine explorations and of the
    per-entry analyses built on them.

    Every analysis pass re-derives the same object: the reachable
    state space of one pattern's abstract machine ({!Machine.make},
    exact or interval, explored by {!Reach.explore}).  A combined run
    such as [analyze --races --certify-lateness --shard-plan] used to
    explore the same entry once per pass; this table makes the
    exploration a per-(canonical pattern, exactness, budget) singleton
    shared by {!Checks}, {!Commute}, {!Robust} (through the former two)
    and {!Shard}.

    {b Canonical keys.}  Explorations are keyed on the {!Canon} form of
    a pattern, not on its concrete names, so the renamed copies of one
    suite entry cost one exploration between them.  The machine
    returned is the canonical pattern's; what a caller reads off it is
    either rename-invariant (a state count) or renamed back with
    {!Canon.name}/{!Canon.trace}.

    The cache key includes the effective budget, so a pass asking for
    a larger budget never receives a truncated exploration computed
    under a smaller one.  Cross-entry work is not cached here: product
    explorations (pairs of machines, {!Commute.analyze_product},
    {!Suite_checks}) are about the names two entries share, so they
    build their machines on the concrete patterns.

    {b Result tables.}  Beside the explorations, {!results} tables hold
    the finished per-entry analyses ({!Commute.analyze},
    {!Checks.report}) on canonical patterns, keyed by (canonical
    pattern, budget); the analyses rename a hit back to the caller's
    names.  {!reset} clears them with the explorations.

    {b Clamped explorations.}  {!Commute.analyze} explores the
    canonical pattern with its ranges clamped ({!Commute.clamp}), so
    its exploration is keyed by that clamped canonical pattern: entries
    that differ only in wide range bounds share one exploration, while
    each keeps its own result (re-expanded to its real bounds).

    The tables are process-global and unbounded — the analyzer is a
    batch tool whose working set is the suites named on one command
    line, and [serve --ooo] certifies one suite at start-up. *)

open Loseq_core

val default_budget : int
(** The state budget when a caller gives none (200000). *)

val explore :
  ?budget:int ->
  exact:bool ->
  Canon.t ->
  Machine.t * Machine.state Reach.exploration
(** The machine of {!Canon.pattern} and its (possibly budget-truncated)
    exploration, computed at most once per (canonical pattern, exact,
    budget). *)

type 'a results
(** A table of per-entry results on canonical patterns. *)

val results : unit -> 'a results
(** A fresh table, cleared by every {!reset}.  Create it once, at
    module initialization. *)

val result :
  'a results -> budget:int -> (Canon.t -> 'a) -> Pattern.t -> Canon.t * 'a
(** [result t ~budget compute p] canonicalizes [p] and returns
    [compute] of its canonical form, computed at most once per
    (canonical pattern, budget) in [t]; the caller renames the
    result back through the returned {!Canon.t}.  Raises
    {!Loseq_core.Wellformed.Ill_formed} carrying [p] itself when [p] is
    ill-formed (see {!Canon.make}). *)

val explorations_performed : unit -> int
(** Number of actual {!Reach.explore} runs this table has paid for —
    cache misses since start-up (or the last {!reset}).  Tests assert
    that repeated passes stop moving this counter. *)

val reset : unit -> unit
(** Drop every cached exploration and result and zero the miss
    counter. *)
