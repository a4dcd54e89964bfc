(** Lateness-robustness certificates for checker suites.

    A [K]-bounded reorder of a trace is any permutation that preserves
    the relative order of events whose timestamps are more than [K]
    apart — equivalently, any composition of adjacent swaps of events
    with timestamp gap [<= K].  This is exactly the perturbation
    envelope a {!Loseq_ingest.Reorder} stage with lateness [K] absorbs
    silently: arrival jitter within the window is re-sorted by
    timestamp, and the true order of events stamped within the window
    of each other is not recoverable from the stamps.

    The certificate of a suite is the maximal [K] (possibly [0] or
    [infinity]) such that every [K]-bounded reorder of every trace is
    verdict-invariant for every entry:

    - a pattern with a racy pair ({!Commute}) certifies [Finite 0] —
      even timestamp ties can flip its verdict, so only strictly
      in-order hosting preserves its meaning (the race is reported
      separately as a [race-pair] finding);
    - a fully commuting untimed pattern certifies [Infinite] — its
      verdict depends on the multiset of name orders only through
      pairwise orders that never matter;
    - a fully commuting timed pattern grades by deadline slack: swaps
      within gap [K] displace each timestamp by at most [K], so the
      measured premise-to-conclusion span drifts by at most [2K].  With
      the automaton-exact minimum conclusion length [m]
      ({!Checks.report}) and deadline [d], a doomed deadline ([d < m]
      under strictly increasing stamps) stays doomed while
      [d + 2K < m], certifying [K = (m - d - 1) / 2]; a live deadline
      certifies [Finite 0] ([jitter-fragile]: the verdict is a
      timestamp race);
    - anything undecided within the analysis budget certifies
      [Finite 0] conservatively.  Since the commutation analysis runs
      on clamped range counters ({!Commute.clamp}), its state count
      does not grow with range bounds; the budget stops patterns
      with many names and fragments, and races whose witnesses,
      re-expanded to huge bounds, would exceed it.

    The suite bound is the minimum over its entries; {!Loseq_ingest}
    consults it at startup so that hosting behind a larger reorder
    window at least warns ([reorder-unsafe] is an error under
    [--strict-reorder]). *)

open Loseq_core

type bound = Finite of int | Infinite

val compare_bound : bound -> bound -> int
val min_bound : bound -> bound -> bound

val bound_to_string : bound -> string
(** ["inf"] for {!Infinite}, the decimal otherwise. *)

val pp_bound : Format.formatter -> bound -> unit

type entry = {
  label : string;
  pattern : Pattern.t;
  bound : bound;  (** [min] of [order_bound] and [time_bound] *)
  order_bound : bound;  (** from pairwise commutation: [0] or [Infinite] *)
  time_bound : bound;  (** from deadline slack; [Infinite] when no armed
                           configuration is reachable or the pattern is
                           untimed *)
  decided : bool;
      (** the bound is exact: a race fixed it at [0], or both analyses
          ran to completion; an undecided entry is conservatively
          bounded by [Finite 0] *)
  complete : bool;
      (** the commutation analysis explored every state within the
          budget, so [races] lists every racy pair; a decided entry
          may still be incomplete (a race fixed its bound before the
          exploration was cut) *)
  races : Commute.race list;
  commuting : (Name.t * Name.t) list;
  time_fragile : bool;
      (** timed, order-commuting, but the deadline verdict is live:
          [time_bound] is what caps the entry *)
}

type certificate = {
  entries : entry list;
  bound : bound;  (** minimum over entries; [Infinite] for an empty
                      suite *)
  decided : bool;  (** every entry decided *)
}

val entry : ?budget:int -> string * Pattern.t -> entry
val certificate : ?budget:int -> (string * Pattern.t) list -> certificate
(** Raises {!Wellformed.Ill_formed} on an ill-formed pattern. *)

val findings : ?lateness:int -> certificate -> Finding.t list
(** [race-pair] (warning, twin-trace witness) per racy pair,
    [jitter-fragile] (warning) per time-fragile entry,
    [analysis-budget] (info) per undecided entry and per decided entry
    whose race list may be incomplete ([complete] unset), and — when
    [lateness] exceeds an entry's certified bound — [reorder-unsafe]
    (error) for that entry. *)

val race_findings : ?budget:int -> (string * Pattern.t) list -> Finding.t list
(** Convenience: [findings (certificate items)] without a lateness
    constraint — the [analyze --races] surface. *)
