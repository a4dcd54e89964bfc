(** Breadth-first exploration of a finite transition system.

    Generic over the state type so the same explorer serves a single
    abstract machine ({!Machine}) and the synchronous product of two
    machines ({!Suite_checks}).  BFS order makes the predecessor tree a
    shortest-path tree, so {!path} returns minimal witnesses for free.

    Exploration is bounded by a state [budget]; when the budget is hit
    the result is marked incomplete and callers must not draw
    universally-quantified conclusions (unreachability, dead names,
    safe sinks) from it — existential ones ({!find} hits) remain
    valid.

    The explorer indexes states in an open-addressing table keyed by
    the state itself, through the system's own [hash] and [equal]:
    each successor is hashed once, and one probe sequence both finds
    a known state and places a new one.  Discovery order, and so every
    index, depends only on [step] and the budget, never on the hash. *)

type 'a system = {
  init : 'a;
  n_ids : int;  (** event ids are [0 .. n_ids-1] *)
  step : 'a -> int -> 'a list;
  final : 'a -> bool;  (** absorbing — not expanded *)
  hash : 'a -> int;
      (** agrees with [equal]: [equal a b] implies [hash a = hash b] *)
  equal : 'a -> 'a -> bool;  (** structural equality of states *)
}

type 'a exploration = private {
  system : 'a system;
  states : 'a array;  (** in BFS discovery order; index 0 = [init] *)
  pred : (int * int) array;  (** [(parent, id)]; [(-1, -1)] at the root *)
  succ : (int * int) list array;  (** outgoing [(id, target)] edges *)
  complete : bool;
}

val explore : ?budget:int -> 'a system -> 'a exploration
(** [budget] defaults to 200000 states. *)

val pair_hash : ('a -> int) -> ('b -> int) -> 'a * 'b -> int
val pair_equal :
  ('a -> 'a -> bool) -> ('b -> 'b -> bool) -> 'a * 'b -> 'a * 'b -> bool
(** The [hash] and [equal] of a product system, from its components'. *)

val find : 'a exploration -> ('a -> bool) -> int option
(** Lowest-index (hence shortest-path) state satisfying the
    predicate. *)

val path : 'a exploration -> int -> (int * 'a) list
(** The BFS-tree path from the root to a node: [(event id, state
    reached)] per step, root excluded. *)

val co_reachable : 'a exploration -> ('a -> bool) -> bool array
(** [co_reachable ex p] marks every explored state from which some
    state satisfying [p] is reachable (backward closure over the
    explored edges).  Only meaningful when [ex.complete]. *)
