open Loseq_core

type bound = Finite of int | Infinite

let compare_bound a b =
  match (a, b) with
  | Infinite, Infinite -> 0
  | Infinite, Finite _ -> 1
  | Finite _, Infinite -> -1
  | Finite x, Finite y -> compare x y

let min_bound a b = if compare_bound a b <= 0 then a else b
let bound_to_string = function Infinite -> "inf" | Finite k -> string_of_int k
let pp_bound ppf b = Format.pp_print_string ppf (bound_to_string b)

type entry = {
  label : string;
  pattern : Pattern.t;
  bound : bound;
  order_bound : bound;
  time_bound : bound;
  decided : bool;
  complete : bool;
  races : Commute.race list;
  commuting : (Name.t * Name.t) list;
  time_fragile : bool;
}

type certificate = { entries : entry list; bound : bound; decided : bool }

let entry ?budget (label, p) =
  let c = Commute.analyze ?budget p in
  let order_bound =
    if c.Commute.races <> [] then Finite 0
    else if c.Commute.complete then Infinite
    else Finite 0
  in
  let order_decided = c.Commute.complete || c.Commute.races <> [] in
  let time_bound, time_fragile, time_decided =
    match p with
    | Pattern.Antecedent _ -> (Infinite, false, true)
    | Pattern.Timed g ->
        if not c.Commute.time_sensitive then
          (* no reachable armed configuration: the deadline can never
             decide a verdict, so timestamps are irrelevant.  Only
             claimable when the exploration that failed to find one was
             complete. *)
          (Infinite, false, c.Commute.complete)
        else
          let r = Checks.report ?budget p in
          let deadline = g.Pattern.deadline in
          (match r.Checks.min_conclusion_events with
          | Some m when deadline < m ->
              (* doomed under strictly increasing stamps; a K-bounded
                 reorder drifts the measured span by at most 2K, so it
                 stays doomed while deadline + 2K < m *)
              (Finite ((m - deadline - 1) / 2), true, r.Checks.complete)
          | Some _ -> (Finite 0, true, r.Checks.complete)
          | None -> (Finite 0, true, false))
  in
  let decided = order_decided && time_decided in
  let bound =
    if decided then min_bound order_bound time_bound
    else min_bound (Finite 0) (min_bound order_bound time_bound)
  in
  {
    label;
    pattern = p;
    bound;
    order_bound;
    time_bound;
    decided;
    complete = c.Commute.complete;
    races = c.Commute.races;
    commuting = c.Commute.commuting;
    time_fragile;
  }

let certificate ?budget items =
  let entries = List.map (entry ?budget) items in
  let bound =
    List.fold_left (fun acc (e : entry) -> min_bound acc e.bound) Infinite
      entries
  in
  let decided = List.for_all (fun (e : entry) -> e.decided) entries in
  { entries; bound; decided }

let race_witness (r : Commute.race) =
  let verdict passes = if passes then "PASS" else "FAIL" in
  Format.asprintf "%s: %s  /  %s: %s"
    (verdict r.Commute.ab_passes)
    (Witness.to_string r.Commute.trace_ab)
    (verdict (not r.Commute.ab_passes))
    (Witness.to_string r.Commute.trace_ba)

let findings ?lateness cert =
  let of_entry (e : entry) =
    let subject = e.label in
    let races =
      List.map
        (fun (r : Commute.race) ->
          Finding.v ~subject ~witness:(race_witness r) Finding.Warning
            "race-pair"
            "names '%a' and '%a' race: one adjacent swap flips the verdict%s"
            Name.pp r.Commute.a Name.pp r.Commute.b
            (if r.Commute.time_divergence then " at the deadline" else ""))
        e.races
    in
    let fragile =
      if e.time_fragile then
        [
          Finding.v ~subject Finding.Warning "jitter-fragile"
            "the deadline verdict depends on timestamps: certified \
             lateness bound %a"
            pp_bound e.time_bound;
        ]
      else []
    in
    let undecided =
      if not e.decided then
        [
          Finding.v ~subject Finding.Info "analysis-budget"
            "commutation analysis incomplete within the state budget; \
             lateness bound conservatively certified as %a"
            pp_bound e.bound;
        ]
      else if not e.complete then
        [
          Finding.v ~subject Finding.Info "analysis-budget"
            "commutation analysis stopped at the state budget: the race \
             pairs reported are real, but more may exist"
        ]
      else []
    in
    let unsafe =
      match lateness with
      | Some k when compare_bound (Finite k) e.bound > 0 ->
          [
            Finding.v ~subject Finding.Error "reorder-unsafe"
              "hosted behind a reorder window of %d but certified only \
               for lateness <= %a: verdict flips can pass unnoticed"
              k pp_bound e.bound;
          ]
      | _ -> []
    in
    races @ fragile @ undecided @ unsafe
  in
  Finding.order (List.concat_map of_entry cert.entries)

let race_findings ?budget items = findings (certificate ?budget items)
