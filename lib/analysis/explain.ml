open Loseq_core

type entry = {
  code : string;
  severity : Finding.severity;
  title : string;
  rationale : string;
  example : string option;
}

let e code severity title rationale example =
  { code; severity; title; rationale; example }

let all =
  [
    (* ---- semantic analyzer ------------------------------------------- *)
    e "violation-unsat" Finding.Error "the property can never be violated"
      "Exhaustive exploration of the monitor automaton found no \
       reachable violation (and, for timed patterns, no reachable armed \
       configuration).  Such a checker can never fail, so it monitors \
       nothing; every well-formed loose-ordering pattern is violable, \
       so this finding normally indicates a bug in the specification \
       tooling rather than a plausible hand-written pattern."
      None;
    e "vacuous-unviolatable" Finding.Warning
      "the checker can reach a state where it is vacuous"
      "Some reachable configuration has no violation reachable from it: \
       once the run passes that point the checker is dead weight and \
       silently stops constraining the design.  The classic case is a \
       non-repeated antecedent (P << i): after the first accepted \
       trigger it is satisfied forever.  Use '<<!' if every trigger \
       occurrence must be checked.  The witness trace leads to the \
       first such state."
      (Some "{set_imgAddr, set_glAddr, set_glSize} << start");
    e "match-unsat" Finding.Error "no trace completes a recognition round"
      "No reachable configuration completes a full recognition round, \
       so the property can never be exercised positively.  Like \
       violation-unsat this cannot happen for a well-formed pattern and \
       points at tooling or generation bugs."
      None;
    e "dead-name" Finding.Warning "a name can never be legally consumed"
      "The name appears in the pattern's alphabet, but no reachable \
       configuration can consume it without violating.  The range it \
       belongs to never contributes to a match: either the pattern \
       over-specifies the protocol or the name is a typo."
      None;
    e "deadline-infeasible" Finding.Error
      "the deadline is below the conclusion's minimal event count"
      "The minimal number of events needed to recognize the conclusion \
       — measured as a shortest path on the monitor automaton — exceeds \
       the deadline.  With strictly increasing timestamps every premise \
       match is doomed: the property reduces to 'the premise never \
       completes'.  Only simultaneous events (several events in one \
       time unit) could ever satisfy it; if that is intended, say so in \
       a comment, otherwise raise the deadline."
      (Some "start => ack[3,8] < done within 2");
    e "deadline-tight" Finding.Warning
      "the deadline equals the conclusion's minimal event count"
      "The conclusion is only satisfiable when every one of its events \
       lands on consecutive time units after the premise: any \
       scheduling delay at all violates.  Usually the deadline was \
       meant to include slack."
      (Some "start => ack[3,8] < done within 4");
    e "subsumed-checker" Finding.Warning "a checker is redundant"
      "Every trace this entry rejects is already rejected by another \
       entry of the suite (product reachability over both monitor \
       automata found no state where this one is violated and the other \
       is not).  Dropping the subsumed entry loses no checking power \
       and saves monitoring cost."
      None;
    e "equivalent-checkers" Finding.Warning
      "two checkers reject exactly the same traces"
      "Subsumption holds in both directions: the two entries are \
       interchangeable.  Keep one."
      None;
    e "conflicting-pair" Finding.Error "two checkers can never both match"
      "Each property is matchable on its own, but no trace completes a \
       recognition round of both without violating one of them.  A \
       suite containing such a pair rejects every run that fully \
       exercises it — almost always one of the two orderings is written \
       backwards."
      None;
    (* ---- commutation / reorder robustness ---------------------------- *)
    e "race-pair" Finding.Warning
      "two names race: their relative order decides the verdict"
      "Some reachable configuration of the monitor automaton reaches \
       verdict-distinguishable states depending on which of the two \
       names arrives first; the twin-trace witness is one adjacent \
       swap apart and flips the verdict on replay.  Hosting such a \
       checker behind any out-of-order ingress (even one that only \
       reorders timestamp ties) can silently change its verdict, so \
       its lateness-robustness bound is 0."
      (Some "req < ack <<! done");
    e "jitter-fragile" Finding.Warning
      "the deadline verdict is a timestamp race"
      "Every name pair of the pattern commutes, but a reachable armed \
       configuration exists and the deadline is satisfiable, so \
       displacing timestamps within a reorder window can move the \
       measured premise-to-conclusion span across the deadline.  The \
       certified lateness bound is the largest window that provably \
       cannot (0 when the deadline is live; (m - d - 1) / 2 when the \
       deadline d is below the conclusion's minimal event count m, \
       because the verdict is then pinned to FAIL until the drift 2K \
       bridges the gap)."
      None;
    e "reorder-unsafe" Finding.Error
      "hosted reorder window exceeds the certified lateness bound"
      "The serving configuration admits K-bounded arrival jitter, but \
       the suite's verdicts are only certified invariant up to a \
       smaller bound: some reordering the ingress absorbs silently \
       could flip a verdict, so the streamed verdicts cannot be \
       trusted at this window size.  Lower --lateness, fix the racy \
       entries, or accept the risk by dropping --strict-reorder."
      None;
    (* ---- shard-plan analysis ------------------------------------------ *)
    e "shard-coupled" Finding.Warning
      "two checkers (or two names of one checker) must share a shard"
      "The shard planner found an order-coupling it had to honor: \
       either a cross-checker pair of names fails to commute on the \
       synchronous product of the two exact monitor automata (the \
       twin-trace witness flips one of the two verdicts under one \
       adjacent swap), or a single checker's own racy pair pins its \
       whole alphabet slice to in-order delivery.  The named entries \
       are co-located in one shard; splitting them across domains \
       would require a synchronized event order between the shards."
      None;
    e "shard-imbalance" Finding.Warning
      "the shard plan's static cost balance exceeds the threshold"
      "After contracting every coupled pair, the heaviest shard's \
       static cost (flat-slab slots + abstract reachable states + \
       optional profile-weighted event counts) exceeds the mean over \
       non-empty shards by more than the threshold (default 1.5x): \
       the partition would not speed anything up, because the \
       heaviest shard dominates wall-clock.  Usually one cluster of \
       coupled checkers is simply too big — fix the races that glue \
       it together, or accept fewer shards."
      None;
    e "shard-divergence" Finding.Error
      "sharded execution disagrees with the unsharded suite"
      "Replaying a trace through the sharded harness (one hub per \
       shard over the name-filtered trace, verdicts merged at the \
       sequencer) produced a verdict different from the unsharded \
       suite on the same trace.  On a certified plan this is a \
       soundness bug in the planner or the harness, never a property \
       of the trace — report it."
      None;
    e "analysis-budget" Finding.Info "state budget exhausted"
      "The abstract state space exceeded the exploration budget; \
       existential results (witnesses found before the cut-off) are \
       still valid, but unreachability-based checks were skipped for \
       the pattern or pair."
      None;
    (* ---- mutation / coverage quality gate ----------------------------- *)
    e "mutant-survived" Finding.Warning
      "a first-order mutant of a monitor went undetected"
      "A single seeded fault (a retargeted or deleted transition, an \
       off-by-one or saturated counter bound, a shifted deadline, a \
       swapped recognizer category, an inverted verdict) produced a \
       monitor that no tier distinguished from the original: the static \
       findings agree, every differential trace replays to the same \
       verdict, and the exact-counter product either exhausted its \
       budget or found no distinguishing state.  The checker's quality \
       gate has a blind spot exactly this wide — add a trace that \
       exercises the mutated behaviour (the finding's witness command \
       replays the survivor) or raise the product budget.  Mutants \
       provably equivalent on the complete product are pruned as \
       stillborn instead and never reported."
      None;
    e "mutation-kill-floor" Finding.Error "mutation kill rate below the gate"
      "The fraction of non-stillborn mutants killed fell below the \
       configured floor.  Each survivor is reported separately; this \
       finding is the aggregate gate CI fails on."
      None;
    e "coverage-gap" Finding.Warning
      "the trace set misses reachable monitor states"
      "Reachable abstract states (the analyzer's own reachable set, not \
       an estimate) exist that no trace in the set ever drives the \
       monitor through.  Any fault whose observable behaviour lives \
       only in the unvisited region — exactly what mutation analysis \
       seeds — is invisible to this trace set.  The witness is a \
       BFS-minimal trace reaching the first uncovered state; extending \
       the suite with it (and its neighbourhood) closes the gap."
      None;
    e "backend-divergence" Finding.Error
      "structural and compiled monitors disagree on a replay"
      "Replaying the same trace through the flat table engine (the \
       compiled monitor) and the structural per-monitor Drct \
       construction produced different verdicts.  The two are built \
       independently to one semantics; a divergence is an engine bug \
       (or memory corruption), never a property of the trace.  \
       Mutation runs double as this cross-validation: every \
       pattern-level mutant is replayed on both in lockstep."
      None;
    (* ---- syntactic linter -------------------------------------------- *)
    e "singleton-disjunction" Finding.Warning
      "a one-range fragment marked disjunctive"
      "With a single range, 'or' and 'and' coincide; the disjunction \
       suggests a larger choice was intended."
      None;
    e "zero-deadline" Finding.Warning "deadline 0"
      "The whole conclusion must happen at the premise's final \
       timestamp."
      None;
    e "tight-deadline" Finding.Warning
      "syntactic lower bound close to the deadline"
      "The linter's cheap syntactic version of deadline-infeasible; \
       when the analyzer runs, its automaton-exact verdict replaces \
       this heuristic."
      None;
    e "wide-range" Finding.Warning "a range expands to many PSL names"
      "Any PSL-based flow materializes one name per repetition; the \
       direct monitors are unaffected (the paper's point)."
      None;
    e "huge-counter" Finding.Info "a counter needs many bits" "" None;
    e "state-space" Finding.Info "explicit product state estimate"
      "What a materialized DFA would cost compared to the modular \
       monitors; estimates beyond the internal cap are reported as a \
       lower bound."
      None;
    e "unbounded-trigger" Finding.Info "non-repeated antecedent"
      "After the first trigger the property never fails again; often \
       '<<!' was meant.  The analyzer's vacuous-unviolatable is the \
       semantic confirmation."
      None;
  ]

let find code = List.find_opt (fun x -> String.equal x.code code) all
let rules = List.map (fun x -> (x.code, x.title)) all

let pp ppf x =
  Format.fprintf ppf "@[<v>%s (%a)@,  %s@,@,@[<hov>%a@]@]" x.code
    Finding.pp_severity x.severity x.title Format.pp_print_text x.rationale;
  match x.example with
  | None -> ()
  | Some src -> (
      match Parser.pattern src with
      | Error _ -> ()
      | Ok p ->
          Format.fprintf ppf "@\n@\nexample: %s" src;
          let fs =
            List.filter
              (fun (f : Finding.t) -> String.equal f.code x.code)
              (Checks.findings p @ Robust.race_findings [ ("example", p) ])
          in
          List.iter (fun f -> Format.fprintf ppf "@\n  %a" Finding.pp f) fs)
