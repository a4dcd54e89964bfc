(** The flat-table {e suite} engine: a whole pattern suite compiled
    ahead of time into one table-driven step machine — the one
    implementation of the paper's Fig. 5 recognizer automaton.
    {!Compiled} is this engine hosting a single checker.

    - every event name across the suite is interned into one dense
      [gid] space, with a CSR (offsets + parallel arrays) dispatch
      table mapping each [gid] to the [(checker, local-id)] pairs that
      must step — per-name dispatch is an array slice walk, no
      closures, no hash on the hot path;
    - all automaton states, range counters, deadline slots and verdict
      descriptors of every checker live in a single [Bigarray] int
      array ({!layout}): one contiguous slab per checker, control
      words first, then recognizer states, then counters.  Beside the
      slab the engine keeps only derived bookkeeping, never part of a
      blob: the deadline marks ({!drain_deadlines}), the
      {!recognizer_steps} counter and, per checker, whether its active
      fragment is opened and which recognizer counts.  So a
      checkpoint of the whole suite is one [memcpy]-shaped blob
      ({!save_blob}), restoring a checker from a second engine of the
      same suite is one slot-range copy ({!copy_checker}), and a
      future multicore shard is a slice of the array;
    - {!step_local} runs the Fig. 5 step.  Once the active fragment is
      opened (no recognizer waits), a name of it steps only two
      recognizers, its owner and the counting one, not the whole
      fragment: O(1) per delivery.  That shortcut needs every owned
      name to be its own recognizer's [Self] and its siblings'
      [Current]; compilation checks this per checker from the category
      table, and a checker whose (patched, {!patched}) tables break it
      steps whole fragments.

    The references the engine is tested against are built
    independently of it: the structural {!Monitor}, the exact
    [Loseq_analysis.Machine] and {!Semantics}. *)

(** {1 Verdicts and states}

    Shared with {!Compiled}, which re-exports them. *)

type verdict =
  | Running
  | Satisfied
  | Violated of { reason : Diag.reason; time : int; index : int }

type rec_state = Idle | Waiting | Started | Counting of int | Done

type persisted = {
  p_recs : rec_state array;  (** per recognizer, in table order *)
  p_active : int;
  p_index : int;  (** events consumed so far *)
  p_started : int;  (** timed: premise-recognition time, [-1] unarmed *)
  p_q_done : bool;
  p_rounds : int;
  p_verdict : verdict;
}
(** One checker's complete run state ({!persist_checker}). *)

type static = {
  names : Name.t array;  (** local id → name *)
  owner : int array;  (** local id → fragment index, [-1] = terminator-only *)
  terminator : bool array;  (** local id → closes the whole ordering *)
  category : Context.category array array;
      (** recognizer → local id → class *)
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
(** One checker's compile-time tables, in checker-local indices
    ({!static}). *)

type patch = {
  set_category : (int * int * Context.category) list;
      (** [(recognizer, id, category)] overrides *)
  set_owner : (int * int) list;
      (** [(id, fragment)]; [-1] = terminator-only *)
  set_terminator : (int * bool) list;
  set_lo : (int * int) list;  (** [(recognizer, lo)] *)
  set_hi : (int * int) list;  (** [(recognizer, hi)] *)
  set_deadline : int option;
}
(** Table overrides for {!patched}, in checker-local indices. *)

type t

val compile : (string * Pattern.t) list -> t
(** Compile a labelled suite.  Raises {!Wellformed.Ill_formed} on any
    ill-formed pattern.  Checker indices are list order. *)

(** {1 Identity} *)

val size : t -> int
(** Number of checkers. *)

val label : t -> int -> string
val pattern : t -> int -> Pattern.t
val alphabet : t -> int -> Name.Set.t

val names : t -> Name.t array
(** The interning table: [gid -> name], in first-appearance order
    across the suite — part of the checkpoint identity. *)

val gid_of_name : t -> Name.t -> int option

val local_of_gid : t -> int -> int -> int
(** [local_of_gid t ck gid] is the checker-local id of the name
    interned as [gid] for checker [ck] (its position in the sorted
    alphabet), or [-1] when [ck] does not hear it — what {!step_local}
    takes.  A scan of [gid]'s dispatch row (the checkers hearing that
    name): compilation keeps no checker-by-name table, so it stays
    linear in suite size.  Raises [Invalid_argument] on a [gid] out of
    range. *)

val local_of_name : t -> int -> Name.t -> int
(** {!local_of_gid} after interning; [-1] for a name foreign to the
    suite. *)

(** {1 Stepping} *)

val step_local : t -> int -> int -> time:int -> unit
(** [step_local t ck loc ~time]: one monitor step of checker [ck] on
    its local name [loc].  Sticky after a decided verdict.  The hot
    path: a handful of reads in [ck]'s slab, no allocation. *)

val step_name : t -> gid:int -> time:int -> unit
(** Step every checker subscribed to [gid] (the CSR row), in suite
    order. *)

val step_event : t -> Trace.event -> unit
(** {!step_name} after interning; foreign names are ignored. *)

val step_checker : t -> int -> Trace.event -> unit
(** Step one checker only (the per-checker backend view's [step]);
    names outside its alphabet are ignored. *)

val recognizer_steps : t -> int
(** Fig. 5 recognizer transitions the engine has stepped since
    {!compile}: the work counter behind
    [loseq_flat_recognizer_steps_total].  Never reset, not part of a
    blob. *)

(** {1 Verdicts and time} *)

val verdict_code : t -> int -> int
(** [0] running, [1] satisfied, [2] violated — the raw control word,
    for allocation-free polling. *)

val verdict : t -> int -> verdict
(** The full verdict, diagnostics reconstructed from the tables. *)

val active_fragment : t -> int -> int
val index : t -> int -> int
val rounds_completed : t -> int -> int

val check_time_checker : t -> int -> now:int -> unit
val check_time : t -> now:int -> unit
(** Report deadline misses at [now] (one checker / every timed
    checker). *)

val finalize : t -> now:int -> unit

val fire_due : t -> upto:int -> unit
(** Fire every armed deadline [dl] with [dl + 1 <= upto], each through
    {!check_time_checker} at its exact expiry instant [dl + 1] — the
    schedule of a timeout wheel.  Allocation-free. *)

val next_deadline_checker : t -> int -> int option

val next_deadline : t -> int option
(** Earliest armed deadline across the suite — what a hub parks its
    single kernel timeout at. *)

val deadlines_dirty : t -> bool
(** Some timed checker's armed-deadline state may have changed since
    the last {!drain_deadlines} (arming, completion, round reset,
    verdict, {!copy_checker}, or a whole-engine {!reset}/{!load_blob}).  The
    steady-state step path leaves it false, so a host tests one flag
    per event. *)

val drain_deadlines : t -> (int -> unit) -> unit
(** Hand each timed checker whose deadline state changed since the last
    drain to [f], once (every timed checker after a whole-engine
    change), and clear the record — how a host re-arms only the
    checkers that moved.  The record lives beside the state array, so
    it is never part of a blob. *)

val set_notify : t -> (int -> unit) option -> unit
(** [notify ck] fires on every verdict decision (satisfied or
    violated, including deadline checks) — how engine-level dispatch
    still feeds checker hooks and [Obs] transition counters. *)

(** {1 Reset and persistence} *)

val reset_checker : t -> int -> unit
val reset : t -> unit

val persist_checker : t -> int -> persisted
(** One checker's state, self-contained: a read-only view (mutating it
    cannot corrupt the engine), for {!Compiled.snapshot} and tests.
    State moves between engines only by slot copy ({!copy_checker},
    {!slice}, {!load_blob}). *)

val copy_checker : src:t -> t -> int -> unit
(** [copy_checker ~src t ck] overwrites checker [ck]'s slot range in
    [t] with [src]'s and lists [ck] for the next {!drain_deadlines}.
    [src] and [t] must be compiled from the same suite; raises
    [Invalid_argument] when their layouts differ at [ck]. *)

val blob_version : int

val save_blob : t -> string
(** The whole suite's run state as one versioned binary blob:
    ["LSQF"], format version, slot count, then the raw slots —
    resume cost is one array copy, independent of checker count. *)

val load_blob : t -> string -> (unit, string) result
(** Overwrite the run state from a blob.  Rejects (with a message,
    never an exception, leaving the engine as it was) foreign data, an
    unsupported blob version, a slot count that does not match this
    engine's layout, or a word no engine of this suite can hold — a
    verdict, reason or recognizer-state code out of range, a
    diagnostic recognizer outside its checker, an active fragment out
    of range, a conclusion flag other than 0 or 1; the message names
    the checker. *)

(** {1 Tables} *)

val static : t -> int -> static
(** Checker [ck]'s compile-time tables (fresh copies: mutating them
    cannot corrupt the engine). *)

val patched : t -> patch -> t
(** [patched t p] is a fresh one-checker engine whose tables are [t]'s
    with [p] applied and whose run state is initial; [t] is never
    modified and its pattern stays the advisory {!pattern}.  Raises
    [Invalid_argument] on an engine of more than one checker,
    out-of-range indices, [lo/hi] updates that break
    [1 <= lo <= hi], or a negative deadline. *)

(** {1 Introspection} *)

val ctrl_slots : int
(** Control words per checker slab (see DESIGN §3e). *)

type layout = {
  total_slots : int;  (** length of the state array *)
  checker_base : int array;  (** slab start per checker *)
  state_slot : int array;  (** global recognizer -> state slot *)
  counter_slot : int array;  (** global recognizer -> counter slot *)
}

val layout : t -> layout
(** The packing, for tests that pin it and shards that slice it. *)

val checker_slots : t -> int -> int
(** Slab width of one checker: {!ctrl_slots} control words plus a
    state and a counter slot per recognizer — the static footprint a
    shard planner's cost model charges per checker.  Raises
    [Invalid_argument] on an out-of-range checker. *)

val slice : t -> int list -> t
(** [slice t cks] is a fresh engine hosting exactly the checkers
    [cks] (new indices are list order; labels, patterns and run state
    carry over, each checker's slot range copied as {!copy_checker}
    does).  The slice
    re-interns its own gid space over the sub-suite's names — the
    flat-slab shape a single shard of a partitioned suite runs with.
    Raises [Invalid_argument] on an out-of-range or duplicate
    checker. *)
