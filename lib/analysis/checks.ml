open Loseq_core

type report = {
  pattern : Pattern.t;
  complete : bool;
  violation_witness : Trace.t option;
  time_violation : bool;
  match_witness : Trace.t option;
  safe_witness : Trace.t option;
  dead_names : Name.t list;
  min_conclusion_events : int option;
}

let witness_of m ex i = fst (Witness.concretize m (Reach.path ex i))

(* A name the conclusion's alphabet does not contain, to close the
   pseudo-antecedent below. *)
let fresh_trigger alpha =
  let rec go s = if Name.Set.mem (Name.v s) alpha then go (s ^ "_") else s in
  Name.v (go "__deadline")

(* Minimal number of events to recognize an ordering, measured as a
   BFS shortest path on the automaton of [ordering << fresh]. *)
let min_events_of_ordering ordering =
  let trigger = fresh_trigger (Pattern.alpha_ordering ordering) in
  let m, ex =
    Memo.explore ~exact:false
      (Canon.make (Pattern.antecedent ordering ~trigger))
  in
  match Reach.find ex (Machine.completable m) with
  | Some i -> Some (List.length (Reach.path ex i))
  | None -> None (* unreachable with a sufficient budget *)

(* The report on one canonical form; [report] renames it back. *)
let report_canonical ~budget c =
  let pattern = Canon.pattern c in
  let m, ex = Memo.explore ~budget ~exact:false c in
  let violating st = Machine.is_violated st || Machine.can_time_violate m st in
  let violation_witness, time_violation =
    match Reach.find ex Machine.is_violated with
    | Some i -> (Some (witness_of m ex i), false)
    | None -> (
        match Reach.find ex (Machine.can_time_violate m) with
        | Some i -> (Some (witness_of m ex i), true)
        | None -> (None, false))
  in
  let match_witness =
    match Reach.find ex (fun (st : Machine.state) -> st.matched) with
    | Some i -> Some (witness_of m ex i)
    | None -> None
  in
  let safe_witness =
    if not ex.Reach.complete then None
    else begin
      let doomed = Reach.co_reachable ex violating in
      let safe = ref None in
      Array.iteri
        (fun i st ->
          if
            !safe = None
            && (not doomed.(i))
            && not (Machine.is_violated st)
          then safe := Some i)
        ex.Reach.states;
      Option.map (fun i -> witness_of m ex i) !safe
    end
  in
  let dead_names =
    if not ex.Reach.complete then []
    else begin
      let live = Array.make (Machine.n_ids m) false in
      Array.iter
        (List.iter (fun (id, j) ->
             if not (Machine.is_violated ex.Reach.states.(j)) then
               live.(id) <- true))
        ex.Reach.succ;
      let dead = ref [] in
      for id = Machine.n_ids m - 1 downto 0 do
        if not live.(id) then dead := Machine.name m id :: !dead
      done;
      !dead
    end
  in
  let min_conclusion_events =
    match pattern with
    | Pattern.Antecedent _ -> None
    | Pattern.Timed g -> min_events_of_ordering g.conclusion
  in
  {
    pattern;
    complete = ex.Reach.complete;
    violation_witness;
    time_violation;
    match_witness;
    safe_witness;
    dead_names;
    min_conclusion_events;
  }

let results = Memo.results ()

let report ?(budget = Memo.default_budget) pattern =
  let c, r =
    Memo.result results ~budget (report_canonical ~budget) pattern
  in
  let trace = Canon.trace c in
  {
    r with
    pattern;
    violation_witness = Option.map trace r.violation_witness;
    match_witness = Option.map trace r.match_witness;
    safe_witness = Option.map trace r.safe_witness;
    dead_names = List.map (Canon.name c) r.dead_names;
  }

let findings ?budget pattern =
  let r = report ?budget pattern in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  (match r.violation_witness with
  | None when r.complete ->
      add
        (Finding.v Finding.Error "violation-unsat"
           "no trace can violate this property: the checker can never \
            fail and monitors nothing")
  | _ -> ());
  (match (r.violation_witness, r.safe_witness) with
  | Some _, Some w when r.complete ->
      add
        (Finding.v
           ~witness:(Witness.to_string w)
           Finding.Warning "vacuous-unviolatable"
           "after the witness trace no continuation can ever violate \
            this property: the checker goes vacuous (for a non-repeated \
            antecedent, '<<!' keeps it armed)")
  | _ -> ());
  (match r.match_witness with
  | None when r.complete ->
      add
        (Finding.v Finding.Error "match-unsat"
           "no trace can complete a recognition round: the property is \
            never exercised positively")
  | _ -> ());
  List.iter
    (fun nm ->
      add
        (Finding.v Finding.Warning "dead-name"
           "name '%a' can never be consumed without violating - it is \
            unreachable in every legal run"
           Name.pp nm))
    r.dead_names;
  (match (r.pattern, r.min_conclusion_events) with
  | Pattern.Timed g, Some needed ->
      if g.deadline < needed then
        add
          (Finding.v Finding.Error "deadline-infeasible"
             "the conclusion needs at least %d events (automaton \
              shortest path) but the deadline allows only %d time \
              units: with strictly increasing timestamps every premise \
              match is doomed"
             needed g.deadline)
      else if g.deadline = needed then
        add
          (Finding.v Finding.Warning "deadline-tight"
             "the conclusion needs at least %d events and the deadline \
              allows exactly %d time units: any scheduling delay \
              violates"
             needed g.deadline)
  | Pattern.Timed _, None ->
      if r.complete then
        add
          (Finding.v Finding.Info "analysis-budget"
             "state budget exhausted while measuring the conclusion's \
              minimal event count: deadline feasibility was skipped")
  | Pattern.Antecedent _, _ -> ());
  if not r.complete then
    add
      (Finding.v Finding.Info "analysis-budget"
         "state budget exhausted: unreachability-based checks were \
          skipped for this pattern");
  Finding.order (List.rev !fs)
