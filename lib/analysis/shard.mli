(** Certified shard-plan analysis: who may run where, and why.

    The multicore ambition — hosting one suite across several domains
    — is safe exactly when the checkers of different shards cannot
    observe each other's scheduling.  That is a static property of the
    suite: two checkers interfere when their alphabets intersect and
    some cross-checker name pair fails to commute on the synchronous
    product ({!Commute.analyze_product}), and a single checker's own
    racy pairs ({!Commute.analyze}) pin its whole alphabet slice to
    in-order delivery inside one shard.

    This pass builds the {e checker-interference graph} — edges from
    shared alphabet names, from non-commuting cross-checker pairs, and
    from deadline-wheel coupling between timed checkers — contracts
    every hard (racy or undecided) edge, and partitions the resulting
    clusters into [N] shards by a greedy balanced assignment over a
    static cost model: the checker's flat-slab footprint
    ({!Loseq_core.Flat.checker_slots}), its abstract reachable-state
    count ({!Reach}, through the shared {!Memo} table) and, when a
    profile trace is supplied, the number of events that trace would
    actually deliver to the checker.

    The result is a {e certified plan}: a machine-readable artifact
    stating for each shard its checkers, alphabet slice and static
    cost, plus an independence certificate — every cross-shard checker
    pair either shares no name or had {e all} its cross-relevant pairs
    proven commuting.  [Verif.Sharded] replays a trace under the plan
    and must agree with the unsharded suite verdicts; the differential
    oracle's [sharded] mode ([test_oracle]) holds it to the declarative
    semantics. *)

open Loseq_core

(** {1 Cost model} *)

type cost = {
  slab_slots : int;  (** flat-slab footprint, {!Flat.checker_slots} *)
  reach_states : int;
      (** abstract (interval) reachable states, budget-capped *)
  profile_steps : int;
      (** measured steps from a [loseq-profile/1] artifact when one was
          supplied, else events of the profile trace in this checker's
          alphabet; [0] without either *)
  total : int;
      (** the scalar the partitioner balances:
          [slab_slots + bits reach_states + profile_steps].  A
          monitor's per-event cost is its fragment width (the slab),
          never a state-space walk, so the reachable count enters as
          its bit-width — how much run information the checker tracks
          — while the profile term, when present, carries the actual
          dynamic load. *)
}

(** {1 Interference graph} *)

type edge = {
  i : int;
  j : int;  (** entry indices, [i < j] *)
  shared : Name.t list;  (** alphabet intersection, sorted *)
  cross_races : Commute.product_race list;
      (** non-commuting cross-relevant pairs (empty when the product
          commutes or [shared] is empty) *)
  product_complete : bool;
      (** the product analysis decided every cross-relevant pair;
          vacuously [true] when [shared] is empty *)
  deadline_coupled : bool;
      (** both checkers are timed: they would share a hub's deadline
          wheel *)
}

val hard_races : edge -> Commute.product_race list
(** The races on pairs {e both} checkers observe (both names in
    [shared]).  Only these force co-location: a duplicated racy pair
    delivered to two shards could be consumed in different orders
    under independent per-shard reordering.  A race on a mixed pair
    (one name private to its owner) is intra-checker — the owner's
    shard sees both names in trace order, whatever the placement. *)

val hard : edge -> bool
(** A hard edge forces co-location: a shared-pair cross race was
    found ({!hard_races}), or the product analysis ran out of budget
    (undecided is treated as coupled — conservative). *)

(** {1 The plan} *)

type plan = {
  entries : (string * Pattern.t) array;
  costs : cost array;  (** per entry *)
  edges : edge list;  (** interfering pairs only *)
  internal_races : (int * Commute.race) list;
      (** per-entry racy pairs: order-coupling the shard's event
          delivery must preserve *)
  assignment : int array;  (** entry -> shard *)
  shards : int list array;  (** shard -> entry indices, ascending; the
                                array has exactly [N] rows, possibly
                                empty *)
  shard_costs : int array;
  balance : float;
      (** max/mean of {!shard_costs} over {e non-empty} shards;
          [1.0] is perfect *)
  certified : bool;
      (** every cross-shard pair with a shared name has
          [product_complete] and no {!hard_races} — independence under
          in-order slice delivery, and under bounded per-shard
          reordering of non-shared pairs *)
}

val analyze :
  ?budget:int ->
  ?profile:Trace.t ->
  ?measured:(string * int) list ->
  shards:int ->
  (string * Pattern.t) list ->
  plan
(** Build the interference graph and partition the suite into
    [shards >= 1] shards ([Invalid_argument] otherwise).  [budget]
    bounds every exploration (default 200000 states), [profile] adds
    alphabet-frequency weights to the cost model, and [measured] —
    per-label step counts from a live [loseq-profile/1] artifact (see
    {!profile_of_json}) — overrides the profile term for the labels it
    names.  Raises {!Loseq_core.Wellformed.Ill_formed} on an ill-formed
    pattern. *)

val profile_of_json : Json.t -> ((string * int) list, string) result
(** Parse a [loseq-profile/1] artifact (emitted by [loseq serve
    --profile-out] or [loseq trace]) into the [measured] list
    {!analyze} consumes: each checker's label and its measured
    alphabet-event count.  Rejects other schema tags. *)

val shard_alphabet : plan -> int -> Name.Set.t
(** The alphabet slice of one shard — the names its event filter
    subscribes to. *)

(** {1 Reporting} *)

val findings : ?balance_threshold:float -> plan -> Finding.t list
(** [shard-coupled] (warning) per coupling constraint the partitioner
    honored — a cross-checker race (with twin-trace witness), an
    undecided product, or an internal racy pair pinned to its shard —
    and [shard-imbalance] (warning) when [balance] exceeds
    [balance_threshold] (default [1.5]). *)

val to_json : plan -> Json.t
(** The plan artifact: shards (checkers, alphabet slice, cost),
    per-entry costs, interference edges, coupling constraints, balance
    and the independence certificate. *)

val pp : Format.formatter -> plan -> unit
(** Human rendering of {!to_json}'s content. *)
