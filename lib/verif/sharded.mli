(** Sequential sharded execution — the shard planner's correctness
    oracle.

    A shard plan ([Analysis.Shard]) claims that a suite may be split
    into independent groups of checkers.  This harness executes the
    claim, sequentially: every shard gets its {e own} kernel, tap and
    hub hosting a {!Loseq_core.Flat.slice} of the suite's flat slab,
    each event of the trace is delivered only to the shards whose
    alphabet slice contains its name, and a sequencer stub merges the
    per-shard verdicts back into suite order.  On a certified plan the
    merged verdicts must equal unsharded {!Suite.check_trace} verdicts
    on every trace — the [sharded] mode of the differential oracle in
    [test_oracle], and the [shard-divergence] check behind [loseq
    analyze --shard-plan].

    The harness is the single-domain dress rehearsal for multicore
    hosting: same slab slicing, same per-shard deadline wheels, same
    merge point — only the parallelism is missing. *)

open Loseq_core

val run :
  ?metrics:Loseq_obs.Metrics.t ->
  ?final_time:int ->
  plan:int list list ->
  Suite.t ->
  Trace.t ->
  (string * bool) list
(** [run ~plan suite trace] hosts each shard ([plan] lists entry
    indices per shard; it must partition [0 .. n-1]) as its own hub over
    the name-filtered trace and returns the merged [(label, passed)]
    verdicts in suite order.  Every shard finalizes at [final_time]
    (default [Trace.end_time trace] — the {e full} trace's end, so
    deadline semantics match the unsharded run even for shards whose
    filtered slice ends early).

    Raises [Invalid_argument] when [plan] is not a partition, or when
    [trace] is not {!Loseq_core.Trace.is_chronological}: each shard's
    kernel time only moves forward, so a hosted replay cannot judge an
    event stamped before its predecessor the way the offline
    {!Suite.check_trace} does. *)
