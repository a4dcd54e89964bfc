open Loseq_core

type report = {
  label : string;
  pattern : Pattern.t;
  complete : bool;
  reachable_states : int;
  visited_states : int;
  reachable_edges : int;
  visited_edges : int;
  traces : int;
  uncovered_witness : Trace.t option;
}

let report ?budget ~label pattern traces =
  let m = Machine.make pattern in
  let ex = Reach.explore ?budget (Machine.system m) in
  let n = Array.length ex.Reach.states in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i st -> Hashtbl.replace index st i) ex.Reach.states;
  let edges = Hashtbl.create (4 * n) in
  Array.iteri
    (fun i succs ->
      List.iter (fun (id, j) -> Hashtbl.replace edges (i, id, j) ()) succs)
    ex.Reach.succ;
  let visited = Array.make (max 1 n) false in
  visited.(0) <- true;
  let visited_edges = Hashtbl.create 64 in
  let alpha = Pattern.alpha pattern in
  let replay trace =
    let c = Compiled.compile pattern in
    let cur = ref 0 in
    List.iter
      (fun (e : Trace.event) ->
        if Name.Set.mem e.name alpha then begin
          let id =
            match Compiled.id_of_name c e.name with
            | Some i -> i
            | None -> -1
          in
          ignore (Compiled.step c e);
          match Hashtbl.find_opt index (Machine.project m c) with
          | Some j ->
              visited.(j) <- true;
              if !cur >= 0 && Hashtbl.mem edges (!cur, id, j) then
                Hashtbl.replace visited_edges (!cur, id, j) ();
              cur := j
          | None ->
              (* outside the explored prefix (budget) or a time-level
                 violation the event-level graph has no edge for *)
              cur := -1
        end)
      trace
  in
  List.iter replay traces;
  let visited_states = Array.fold_left (fun a v -> if v then a + 1 else a) 0 visited in
  let uncovered = ref None in
  (try
     for i = 0 to n - 1 do
       if not visited.(i) then begin
         uncovered := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  let uncovered_witness =
    Option.map (fun i -> fst (Witness.concretize m (Reach.path ex i))) !uncovered
  in
  {
    label;
    pattern;
    complete = ex.Reach.complete;
    reachable_states = n;
    visited_states = min visited_states n;
    reachable_edges = Hashtbl.length edges;
    visited_edges = Hashtbl.length visited_edges;
    traces = List.length traces;
    uncovered_witness;
  }

let suite_report ?budget entries traces =
  List.map (fun (label, p) -> report ?budget ~label p traces) entries

let pct part whole = if whole = 0 then 100. else 100. *. float part /. float whole

let findings reports =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  List.iter
    (fun r ->
      if not r.complete then
        add
          (Finding.v ~subject:r.label Finding.Info "analysis-budget"
             "state budget exhausted while exploring the reachable set: \
              coverage for '%s' is scored against the explored prefix only"
             r.label);
      if r.visited_states < r.reachable_states then
        let witness = Option.map Witness.to_string r.uncovered_witness in
        add
          (Finding.v ~subject:r.label ?witness Finding.Warning "coverage-gap"
             "the trace set visits %d of %d reachable abstract states \
              (%.0f%%) and %d of %d transitions (%.0f%%) of '%s'; the \
              witness reaches the first uncovered state"
             r.visited_states r.reachable_states
             (pct r.visited_states r.reachable_states)
             r.visited_edges r.reachable_edges
             (pct r.visited_edges r.reachable_edges)
             r.label))
    reports;
  Finding.order (List.rev !fs)

let pp ppf r =
  Format.fprintf ppf
    "%-24s states %4d/%-4d (%3.0f%%)  transitions %4d/%-4d (%3.0f%%)%s"
    r.label r.visited_states r.reachable_states
    (pct r.visited_states r.reachable_states)
    r.visited_edges r.reachable_edges
    (pct r.visited_edges r.reachable_edges)
    (if r.complete then "" else "  [truncated]")
