(** First-order mutation analysis of compiled monitors.

    The monitors are themselves programs; this module checks that the
    analyzer and the trace suites would actually catch a subtly wrong
    automaton.  Each suite entry is perturbed by one first-order
    mutation at a time:

    - {e pattern-level} operators — fragment swap/delete, range
      delete/retarget, counter off-by-one ([lo±1], [hi±1]) and
      saturation flips, deadline [±1] and the timed→untimed flip,
      repetition flip — produce a mutated {!Loseq_core.Pattern.t},
      which flows through {!Loseq_core.Compiled}, {!Loseq_core.Flat},
      {!Checks} and {!Suite_checks} exactly like a hand-written
      pattern (so replaying a pattern mutant on the structural
      {!Loseq_core.Monitor} too doubles as cross-validation of the
      table engine against an independent construction);
    - {e table-level} operators — recognizer-category swaps
      (Self↔Current), terminator-bit flips, owner retargets — use
      {!Loseq_core.Compiled.patched} to perturb the compiled tables
      directly, covering automata no pattern denotes;
    - one {e behavioral} operator, verdict inversion.

    Every mutant is killed (or not) by three tiers, each reporting
    which one caught it:

    + {e static} ([Static]): the {!Checks}/{!Suite_checks} finding
      codes of the mutated pattern differ from the original's;
    + {e equivalence} ([Equivalence]): the exact-counter synchronous
      product of original and mutant ({!Machine.make}[ ~exact:true] /
      {!Machine.of_compiled}) reaches a state where the two verdicts
      — or the deadline observables — differ; the distinguishing path
      is concretized and verified by replay.  A mutant whose complete
      product reaches {e no} such state (and no armed-and-done state
      with differing deadlines, the late-conclusion guard) is provably
      equivalent and pruned as {e stillborn} — not a survivor;
    + {e differential} ([Differential]): generated, boundary-probing
      and user/catalog traces replayed through original and mutant in
      lockstep until a verdict differs.

    Execution order is cheapest-first (static, differential,
    equivalence); the reported tier is always the one that actually
    made the kill. *)

open Loseq_core

type tier = Static | Equivalence | Differential

val tier_name : tier -> string

type mutant = {
  id : string;  (** ["entry/op"] — stable, replayable via [--mutant] *)
  entry : string;
  op : string;
  description : string;
  pattern : Pattern.t option;  (** [None]: table-level or behavioral *)
  make : unit -> Compiled.t;  (** a fresh instance of the mutant *)
  inverted : bool;  (** verdict inversion applies on top of [make] *)
}

type outcome =
  | Stillborn  (** proven equivalent on the complete product *)
  | Killed of { tier : tier; witness : string }
  | Survived of { undecided : bool }
      (** [undecided]: the equivalence product hit the budget, so the
          mutant could not be pruned either *)

type result = { mutant : mutant; outcome : outcome }

type summary = {
  results : result list;
  generated : int;
  stillborn : int;
  killed_static : int;
  killed_equivalence : int;
  killed_differential : int;
  survivors : result list;
  kill_rate : float;
      (** kills / (generated - stillborn); [1.0] when nothing remains *)
  cross_checked : int;
      (** structural-vs-compiled lockstep replays performed *)
  divergences : (string * string) list;
      (** (mutant id, detail) — the structural monitor and the
          compiled one disagreed; must be empty unless one of them is
          broken *)
}

val mutants_of : ?seed:int -> string * Pattern.t -> mutant list
(** All mutants of one labelled entry.  [seed] (default [0x5eed])
    drives the deterministic sampling of table-level operators.
    Ill-formed or no-op candidates are dropped at generation time. *)

type item = { trace : Trace.t; final_time : int option; tag : string }

val workload :
  ?traces:Trace.t list ->
  seed:int ->
  weak:bool ->
  string * Pattern.t ->
  item list
(** The differential tier's trace set for one entry: a canonical
    round, per-range boundary probes (max run, overflow, underflow,
    missing range, skipped fragment, stray re-entry), deadline
    straddles for timed patterns, seeded {!Loseq_core.Generate} valid
    and violating traces, and the caller's [traces].  With
    [~weak:true] only a single generated valid trace — the
    deliberately weakened set used to demonstrate that trace quality
    moves the kill rate. *)

val run :
  ?budget:int ->
  ?seed:int ->
  ?tiers:tier list ->
  ?traces:Trace.t list ->
  ?weak:bool ->
  ?only:string ->
  (string * Pattern.t) list ->
  summary
(** Mutate every entry of the suite and kill each mutant with the
    requested [tiers] (default all three).  [budget] bounds each
    product exploration (default 200000 states); [traces] join the
    differential workload; [only] restricts to a single mutant id
    (the [--mutant] replay path).  Raises [Failure] if a product
    witness fails to replay — an abstraction soundness bug, not a
    user error. *)

val findings : ?floor:float -> ?suite:string -> summary -> Finding.t list
(** [mutant-survived] (warning) per survivor with a replayable
    [loseq mutate --mutant] command as witness; [backend-divergence]
    (error) per structural-vs-compiled disagreement; [mutation-kill-floor]
    (error) when [floor] (a percentage) is given and the kill rate
    falls below it. *)
