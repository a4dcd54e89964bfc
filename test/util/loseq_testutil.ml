(** Shared helpers and qcheck generators for the test suites. *)

open Loseq_core

let pat src = Parser.pattern_exn src
let tr names = Trace.of_strings names
let name = Name.v

(* ---- Alcotest testables ---------------------------------------------- *)

let pattern_testable = Alcotest.testable Pattern.pp Pattern.equal

let verdict_testable =
  let pp ppf = function
    | Monitor.Running -> Format.pp_print_string ppf "running"
    | Monitor.Satisfied -> Format.pp_print_string ppf "satisfied"
    | Monitor.Violated v -> Format.fprintf ppf "violated(%a)" Diag.pp_violation v
  in
  let eq a b =
    match (a, b) with
    | Monitor.Running, Monitor.Running -> true
    | Monitor.Satisfied, Monitor.Satisfied -> true
    | Monitor.Violated _, Monitor.Violated _ -> true
    | (Monitor.Running | Monitor.Satisfied | Monitor.Violated _), _ -> false
  in
  Alcotest.testable pp eq

(* [p] with every event name [n] replaced by [f n]. *)
let rename_pattern f =
  Pattern.map_ranges ~trigger:f (fun (r : Pattern.range) ->
      Pattern.range ~lo:r.lo ~hi:r.hi (f r.name))

let accepts p trace = Monitor.accepts p trace
let rejects p trace = not (Monitor.accepts p trace)

let check_accepts ?(msg = "trace accepted") p names =
  Alcotest.(check bool) msg true (accepts p (tr names))

let check_rejects ?(msg = "trace rejected") p names =
  Alcotest.(check bool) msg true (rejects p (tr names))

(* ---- QCheck generators ------------------------------------------------ *)

(* Distinct name pool; keeping it small makes collisions (and therefore
   interesting traces) likely. *)
let name_pool = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

let gen_range_for nm =
  QCheck2.Gen.(
    let* lo = int_range 1 3 in
    let* extra = int_range 0 3 in
    return (Pattern.range ~lo ~hi:(lo + extra) (name nm)))

(* Split [names] into consecutive non-empty fragments. *)
let gen_fragments names =
  QCheck2.Gen.(
    let rec split acc = function
      | [] -> return (List.rev acc)
      | remaining ->
          let* take = int_range 1 (min 3 (List.length remaining)) in
          let rec grab k xs =
            if k = 0 then ([], xs)
            else
              match xs with
              | [] -> ([], [])
              | x :: rest ->
                  let taken, left = grab (k - 1) rest in
                  (x :: taken, left)
          in
          let chunk, rest = grab take remaining in
          let* ranges =
            flatten_l (List.map gen_range_for chunk)
          in
          let* connective =
            if List.length ranges > 1 then
              oneofl [ Pattern.All; Pattern.Any ]
            else return Pattern.All
          in
          split (Pattern.fragment ~connective ranges :: acc) rest
    in
    split [] names)

let gen_ordering ~max_names =
  QCheck2.Gen.(
    let* n = int_range 1 (min max_names (Array.length name_pool)) in
    let names = Array.to_list (Array.sub name_pool 0 n) in
    gen_fragments names)

let gen_antecedent =
  QCheck2.Gen.(
    let* body = gen_ordering ~max_names:6 in
    let* repeated = bool in
    return (Pattern.antecedent ~repeated body ~trigger:(name "trig")))

let gen_timed =
  QCheck2.Gen.(
    let* n_premise = int_range 1 3 in
    let* n_conclusion = int_range 1 3 in
    let premise_names =
      Array.to_list (Array.sub name_pool 0 n_premise)
    in
    let conclusion_names =
      Array.to_list (Array.sub name_pool n_premise n_conclusion)
    in
    let* premise = gen_fragments premise_names in
    let* conclusion = gen_fragments conclusion_names in
    let* deadline = int_range 0 120 in
    return (Pattern.timed premise conclusion ~deadline))

let gen_pattern =
  QCheck2.Gen.(
    let* timed = bool in
    if timed then gen_timed else gen_antecedent)

(* Arbitrary word over the pattern alphabet: mostly nonsense, which is
   exactly what equivalence testing needs. *)
let gen_alpha_word p =
  let alpha = Array.of_list (Name.Set.elements (Pattern.alpha p)) in
  QCheck2.Gen.(
    let* len = int_range 0 14 in
    let* picks = list_size (return len) (int_bound (Array.length alpha - 1)) in
    return (List.map (fun i -> alpha.(i)) picks))

(* Timestamp a word with small random gaps so deadlines are exercised
   both ways. *)
let gen_timed_trace p =
  QCheck2.Gen.(
    let* word = gen_alpha_word p in
    let* gaps = list_size (return (List.length word)) (int_range 0 30) in
    let time = ref 0 in
    return
      (List.map2
         (fun n gap ->
           time := !time + gap;
           { Trace.name = n; time = !time })
         word gaps))

(* A biased trace mix: valid traces, mutations of valid traces, and
   arbitrary words — the distribution that stresses monitors best. *)
let gen_trace_for p =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let* choice = int_bound 9 in
    if choice < 3 then return (Generate.valid ~rounds:(1 + (seed mod 3)) rng p)
    else if choice < 6 then
      let base = Generate.valid ~rounds:(1 + (seed mod 2)) rng p in
      let mutations = Generate.mutations p in
      let m = List.nth mutations (seed mod List.length mutations) in
      return (Generate.mutate rng m p base)
    else gen_timed_trace p)

let gen_pattern_and_trace =
  QCheck2.Gen.(
    let* p = gen_pattern in
    let* trace = gen_trace_for p in
    return (p, trace))

(* A K-bounded scramble that preserves the relative order of
   equal-timestamp events: jitter each *timestamp* (not each event) by
   at most K and stable-sort by the jittered key.  Two events more than
   K apart can never swap, so a reorder stage of lateness K always
   admits the result; ties share a key, so its stable drain reproduces
   the chronological trace exactly. *)
let gen_scramble k trace =
  QCheck2.Gen.(
    let times =
      List.sort_uniq compare (List.map (fun e -> e.Trace.time) trace)
    in
    let* jitters = list_size (return (List.length times)) (int_range 0 k) in
    let jitter = Hashtbl.create 16 in
    List.iter2 (fun t j -> Hashtbl.replace jitter t j) times jitters;
    return
      (List.stable_sort
         (fun (a : Trace.event) (b : Trace.event) ->
           compare
             (a.Trace.time + Hashtbl.find jitter a.Trace.time)
             (b.Trace.time + Hashtbl.find jitter b.Trace.time))
         trace))

let print_pattern_and_trace (p, trace) =
  Format.asprintf "@[<v>pattern: %a@,trace: %s@]" Pattern.pp p
    (Trace.to_string trace)

(* A rendered verdict without the " on NAME (event #N)" locator, which
   only the structural monitor prints. *)
let unlocated (label, verdict) =
  let find needle from =
    let n = String.length needle in
    let rec at i =
      if i + n > String.length verdict then None
      else if String.sub verdict i n = needle then Some i
      else at (i + 1)
    in
    at from
  in
  match (find " on " 0, find " (event #" 0) with
  | Some on, Some event when on < event ->
      let close = String.index_from verdict event ')' in
      ( label,
        String.sub verdict 0 on
        ^ String.sub verdict (close + 1) (String.length verdict - close - 1) )
  | _ -> (label, verdict)

(* ---- qcheck-to-alcotest shortcut -------------------------------------- *)

let qtest ?(count = 500) test_name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name:test_name ~print gen prop)
