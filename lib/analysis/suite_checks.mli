(** Cross-pattern decision procedures: subsumption, conflict and
    equivalence over a suite, by reachability in the synchronous
    product of two abstract machines.

    The product steps both machines on every name of the union
    alphabet (a machine ignores names outside its own alphabet, like
    the event hub does), so product states are exactly the pairs of
    configurations some shared trace can produce.

    - {e subsumption}: checker [B] is redundant beside [A] when every
      trace that violates [B] also violates [A] — decided as "no
      reachable product state has [B] violated and [A] not violated"
      ([subsumed-checker]).
    - {e equivalence}: subsumption in both directions
      ([equivalent-checkers]).
    - {e conflict}: both properties are individually matchable, but no
      trace can complete a round of each without violating one of them
      ([conflicting-pair]) — the suite as a whole can never be
      exercised positively.

    Scope: pairs where both patterns are untimed.  Timed violations
    depend on deadlines, which the event-level product does not model;
    rather than report unsound claims, timed pairs are skipped
    (documented in DESIGN.md). *)

open Loseq_core

val product :
  ?budget:int ->
  Machine.t ->
  Machine.t ->
  (Machine.state * Machine.state) Reach.exploration * Name.t array
(** The synchronous product of two machines over the union of their
    alphabets, explored, and the union alphabet in {!Name} order
    (product event id [u] is name [u] of it).  A machine that does not
    know a name stays put on it. *)

val subsumes : ?budget:int -> Pattern.t -> Pattern.t -> bool option
(** [subsumes a b]: do [b]'s violations imply [a]'s (making [b]
    redundant beside [a])?  [None] when undecided — a timed pattern is
    involved or the budget ran out. *)

val compatible_witness :
  ?budget:int -> Pattern.t -> Pattern.t -> (Trace.t option * bool) option
(** [compatible_witness a b] = [Some (w, both_matchable)]:
    [w] is a shortest trace completing a round of both patterns with
    neither violated, or [None] if no such trace exists;
    [both_matchable] tells whether each pattern is matchable on its own
    in the product (when true and [w = None], the pair conflicts).
    Top-level [None]: undecided, as in {!subsumes}. *)

val findings : ?budget:int -> (string * Pattern.t) list -> Finding.t list
(** All cross-pattern findings for a labelled suite; subjects name the
    entries involved. *)
