open Loseq_core

type tier = Static | Equivalence | Differential

let tier_name = function
  | Static -> "static"
  | Equivalence -> "equivalence"
  | Differential -> "differential"

type mutant = {
  id : string;
  entry : string;
  op : string;
  description : string;
  pattern : Pattern.t option;
  make : unit -> Compiled.t;
  inverted : bool;
}

type outcome =
  | Stillborn
  | Killed of { tier : tier; witness : string }
  | Survived of { undecided : bool }

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
  cross_checked : int;
  divergences : (string * string) list;
}

(* ---- pattern-level mutants --------------------------------------------- *)

let set_nth l i x = List.mapi (fun j y -> if j = i then x else y) l
let del_nth l i = List.filteri (fun j _ -> j <> i) l

let rebuild ?premise_len p body =
  try
    match p with
    | Pattern.Antecedent a ->
        Some (Pattern.antecedent ~repeated:a.repeated body ~trigger:a.trigger)
    | Pattern.Timed g -> (
        let k =
          match premise_len with
          | Some k -> k
          | None -> List.length g.premise
        in
        let rec split i acc rest =
          if i = 0 then Some (List.rev acc, rest)
          else
            match rest with [] -> None | x :: tl -> split (i - 1) (x :: acc) tl
        in
        match split k [] body with
        | Some ((_ :: _ as pre), (_ :: _ as concl)) ->
            Some (Pattern.timed pre concl ~deadline:g.deadline)
        | _ -> None)
  with Invalid_argument _ -> None

(* A candidate survives only if well-formed and actually different. *)
let guard p = function
  | Some p' when Wellformed.is_well_formed p' && not (Pattern.equal p p') ->
      Some p'
  | _ -> None

let pattern_mutants p =
  let body = Pattern.body_ordering p in
  let q = List.length body in
  let cands = ref [] in
  let add op desc cand =
    match guard p cand with
    | Some p' -> cands := (op, desc, p') :: !cands
    | None -> ()
  in
  let with_body ?premise_len op desc body' =
    add op desc (rebuild ?premise_len p body')
  in
  (* transition retargets: adjacent fragment swaps *)
  for k = 0 to q - 2 do
    let body' =
      List.mapi
        (fun i f ->
          if i = k then List.nth body (k + 1)
          else if i = k + 1 then List.nth body k
          else f)
        body
    in
    with_body
      (Printf.sprintf "frag-swap@%d" k)
      (Printf.sprintf "fragments %d and %d exchanged" k (k + 1))
      body'
  done;
  (* transition deletes: drop a whole fragment *)
  if q >= 2 then
    List.iteri
      (fun k _ ->
        let premise_len =
          match p with
          | Pattern.Timed g ->
              let pl = List.length g.premise in
              Some (if k < pl then pl - 1 else pl)
          | Pattern.Antecedent _ -> None
        in
        with_body ?premise_len
          (Printf.sprintf "frag-del@%d" k)
          (Printf.sprintf "fragment %d deleted" k)
          (del_nth body k))
      body;
  List.iteri
    (fun k (f : Pattern.fragment) ->
      (* connective flip *)
      (try
         let conn =
           match f.connective with
           | Pattern.All -> Pattern.Any
           | Pattern.Any -> Pattern.All
         in
         with_body
           (Printf.sprintf "conn-flip@%d" k)
           (Printf.sprintf "fragment %d connective flipped" k)
           (set_nth body k (Pattern.fragment ~connective:conn f.ranges))
       with Invalid_argument _ -> ());
      List.iteri
        (fun j (r : Pattern.range) ->
          let nm = Name.to_string r.name in
          (* counter off-by-one and saturation flips *)
          let with_range tag desc lo hi =
            match
              try Some (Pattern.range ~lo ~hi r.name)
              with Invalid_argument _ -> None
            with
            | None -> ()
            | Some r' -> (
                try
                  with_body
                    (Printf.sprintf "%s@%s" tag nm)
                    desc
                    (set_nth body k
                       (Pattern.fragment ~connective:f.connective
                          (set_nth f.ranges j r')))
                with Invalid_argument _ -> ())
          in
          with_range "lo-1"
            (Printf.sprintf "%s lower bound off by one (-1)" nm)
            (r.lo - 1) r.hi;
          with_range "lo+1"
            (Printf.sprintf "%s lower bound off by one (+1)" nm)
            (r.lo + 1) r.hi;
          with_range "hi-1"
            (Printf.sprintf "%s upper bound off by one (-1)" nm)
            r.lo (r.hi - 1);
          with_range "hi+1"
            (Printf.sprintf "%s upper bound off by one (+1)" nm)
            r.lo (r.hi + 1);
          if r.hi > r.lo then
            with_range "sat-hi"
              (Printf.sprintf "%s saturated to [%d,%d]" nm r.lo r.lo)
              r.lo r.lo;
          if r.lo > 1 then
            with_range "sat-lo"
              (Printf.sprintf "%s lower bound released to 1" nm)
              1 r.hi;
          (* range delete *)
          if List.length f.ranges >= 2 then
            (try
               with_body
                 (Printf.sprintf "range-del@%s" nm)
                 (Printf.sprintf "range %s deleted" nm)
                 (set_nth body k
                    (Pattern.fragment ~connective:f.connective
                       (del_nth f.ranges j)))
             with Invalid_argument _ -> ());
          (* range retarget into the next fragment *)
          if List.length f.ranges >= 2 && k + 1 < q then
            try
              let tgt = List.nth body (k + 1) in
              let body' =
                set_nth body k
                  (Pattern.fragment ~connective:f.connective
                     (del_nth f.ranges j))
              in
              let body' =
                set_nth body' (k + 1)
                  (Pattern.fragment ~connective:tgt.Pattern.connective
                     (tgt.Pattern.ranges @ [ r ]))
              in
              with_body
                (Printf.sprintf "range-move@%s" nm)
                (Printf.sprintf "range %s moved into fragment %d" nm (k + 1))
                body'
            with Invalid_argument _ -> ())
        f.ranges)
    body;
  (* deadline +/-1, timed/untimed flip, repetition flip *)
  (match p with
  | Pattern.Timed g ->
      let retime op desc d =
        add op desc
          (try Some (Pattern.timed g.premise g.conclusion ~deadline:d)
           with Invalid_argument _ -> None)
      in
      retime "deadline+1" "deadline off by one (+1)" (g.deadline + 1);
      if g.deadline >= 1 then
        retime "deadline-1" "deadline off by one (-1)" (g.deadline - 1);
      retime "untimed" "deadline effectively removed (10^9)" 1_000_000_000
  | Pattern.Antecedent a ->
      add "repeat-flip"
        (if a.repeated then "repetition dropped (<<! became <<)"
         else "repetition added (<< became <<!)")
        (try
           Some (Pattern.antecedent ~repeated:(not a.repeated) a.body
                   ~trigger:a.trigger)
         with Invalid_argument _ -> None));
  List.rev !cands

(* ---- table-level mutants ----------------------------------------------- *)

(* Deterministic sample without replacement. *)
let sample rng n l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  for i = len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list (Array.sub arr 0 (min n len))

let table_mutants ~seed label p =
  let st = Compiled.static (Compiled.compile p) in
  let n_names = Array.length st.names in
  let n_recs = Array.length st.rec_range in
  let q = st.fragments in
  let rng = Random.State.make [| seed; Hashtbl.hash label; 7 |] in
  let cands = ref [] in
  let add op desc patch = cands := (op, desc, patch) :: !cands in
  (* recognizer-category swaps (Self <-> Current: the recognizer
     miscounts its own events as a sibling's, or vice versa) *)
  let cat_cands = ref [] in
  for r = 0 to n_recs - 1 do
    for id = 0 to n_names - 1 do
      match st.category.(r).(id) with
      | Context.Self -> cat_cands := (r, id, Context.Current) :: !cat_cands
      | Context.Current -> cat_cands := (r, id, Context.Self) :: !cat_cands
      | _ -> ()
    done
  done;
  List.iter
    (fun (r, id, c) ->
      let nm = Name.to_string st.names.(id) in
      add
        (Printf.sprintf "cat-swap@%d.%s" r nm)
        (Printf.sprintf "recognizer %d reclassifies %s as %s" r nm
           (match c with
           | Context.Self -> "its own name"
           | _ -> "a sibling's name"))
        { Compiled.no_patch with set_category = [ (r, id, c) ] })
    (sample rng 4 (List.rev !cat_cands));
  (* terminator flips *)
  for id = 0 to n_names - 1 do
    add
      (Printf.sprintf "term-flip@%s" (Name.to_string st.names.(id)))
      (Printf.sprintf "terminator bit of %s flipped to %b"
         (Name.to_string st.names.(id))
         (not st.terminator.(id)))
      { Compiled.no_patch with set_terminator = [ (id, not st.terminator.(id)) ] }
  done;
  (* owner retargets (owner -1 deletes the name's transitions) *)
  let owned = List.filter (fun id -> st.owner.(id) >= 0) (List.init n_names Fun.id) in
  List.iter
    (fun id ->
      let f = st.owner.(id) in
      let f' = if q >= 2 then (f + 1) mod q else -1 in
      add
        (Printf.sprintf "owner-move@%s" (Name.to_string st.names.(id)))
        (Printf.sprintf "%s retargeted from fragment %d to %s"
           (Name.to_string st.names.(id))
           f
           (if f' < 0 then "terminator-only" else string_of_int f'))
        { Compiled.no_patch with set_owner = [ (id, f') ] })
    (sample rng 3 owned);
  List.rev !cands

let mutants_of ?(seed = 0x5eed) (label, p) =
  let pm =
    List.map
      (fun (op, desc, p') ->
        {
          id = label ^ "/" ^ op;
          entry = label;
          op;
          description = desc;
          pattern = Some p';
          make = (fun () -> Compiled.compile p');
          inverted = false;
        })
      (pattern_mutants p)
  in
  let tm =
    List.map
      (fun (op, desc, patch) ->
        {
          id = label ^ "/" ^ op;
          entry = label;
          op;
          description = desc;
          pattern = None;
          make = (fun () -> Compiled.patched (Compiled.compile p) patch);
          inverted = false;
        })
      (table_mutants ~seed label p)
  in
  let inv =
    {
      id = label ^ "/verdict-invert";
      entry = label;
      op = "verdict-invert";
      description = "verdict inverted: the mutant passes iff the original fails";
      pattern = None;
      make = (fun () -> Compiled.compile p);
      inverted = true;
    }
  in
  pm @ tm @ [ inv ]

(* ---- differential workload --------------------------------------------- *)

type item = { trace : Trace.t; final_time : int option; tag : string }

(* One recognition round of the body as a word: every contributing
   range emits one block ([Any]: only the first range contributes).
   [skip_frag] / [skip_name] drop a fragment or one range's block;
   [count_override] sets one range's block length (default [lo]). *)
let round_word ?(skip_frag = -1) ?skip_name ?count_override body =
  List.concat
    (List.mapi
       (fun k (f : Pattern.fragment) ->
         if k = skip_frag then []
         else
           let contributing =
             match f.connective with
             | Pattern.All -> f.ranges
             | Pattern.Any -> [ List.hd f.ranges ]
           in
           List.concat_map
             (fun (r : Pattern.range) ->
               if skip_name = Some r.name then []
               else
                 let c =
                   match count_override with
                   | Some (nm, c) when Name.equal nm r.name -> c
                   | _ -> r.lo
                 in
                 List.init c (fun _ -> r.name))
             contributing)
       body)

(* Untimed traces get increasing timestamps; timed traces all-zero
   stamps (the Witness convention: a deadline can never interfere with
   an event-level distinction; deadlines are probed with explicit
   [final_time]s instead). *)
let stamp ~timed rounds =
  if timed then
    List.concat_map
      (List.map (fun n -> { Trace.name = n; time = 0 }))
      rounds
  else List.mapi (fun i n -> { Trace.name = n; time = i }) (List.concat rounds)

let workload ?(traces = []) ~seed ~weak (label, p) =
  let body = Pattern.body_ordering p in
  let timed = match p with Pattern.Timed _ -> true | _ -> false in
  let deadline = match p with Pattern.Timed g -> g.deadline | _ -> 0 in
  let trigger =
    match p with Pattern.Antecedent a -> Some a.trigger | _ -> None
  in
  let repeated =
    match p with Pattern.Antecedent a -> a.repeated | Pattern.Timed _ -> true
  in
  let close w = match trigger with Some t -> w @ [ t ] | None -> w in
  let item ?final tag rounds =
    { trace = stamp ~timed rounds; final_time = final; tag }
  in
  let canon = close (round_word body) in
  let rng k = Random.State.make [| seed; Hashtbl.hash label; k |] in
  if weak then
    (* the deliberately weakened set: one generated valid trace, no
       boundary probes, no violating traces, no catalog traces *)
    [ { trace = Generate.valid (rng 0) p; final_time = None; tag = "gen-valid" } ]
  else begin
    let items = ref [] in
    let add it = items := it :: !items in
    let two_rounds w = if repeated then [ canon; w ] else [ w ] in
    add (item "canonical" (two_rounds canon));
    List.iteri
      (fun k (f : Pattern.fragment) ->
        let contributing =
          match f.connective with
          | Pattern.All -> f.ranges
          | Pattern.Any -> [ List.hd f.ranges ]
        in
        List.iter
          (fun (r : Pattern.range) ->
            let nm = Name.to_string r.name in
            let with_count c tag =
              let w = close (round_word ~count_override:(r.name, c) body) in
              add (item (tag ^ ":" ^ nm) (two_rounds w))
            in
            (* drive every counter to its boundaries *)
            if r.hi > r.lo then with_count r.hi "max-run";
            with_count (r.hi + 1) "overflow";
            if r.lo > 1 then with_count (r.lo - 1) "underflow";
            if List.length contributing >= 2 then begin
              let w = close (round_word ~skip_name:r.name body) in
              add (item ("missing:" ^ nm) (two_rounds w))
            end)
          contributing;
        (* omit the whole fragment *)
        add
          (item (Printf.sprintf "skip-frag:%d" k)
             [ close (round_word ~skip_frag:k body) ]);
        (* a stray re-entry of a later fragment after a complete round *)
        if k >= 1 then
          match f.ranges with
          | r :: _ -> add (item (Printf.sprintf "stray:%d" k) [ canon; [ r.Pattern.name ] ])
          | [] -> ())
      body;
    if timed then begin
      let prem_len = Pattern.premise_length p in
      let premise = List.filteri (fun k _ -> k < prem_len) body in
      let pw = round_word premise in
      (* straddle the deadline from both sides *)
      add (item ~final:deadline "deadline-ok" [ pw ]);
      add (item ~final:(deadline + 1) "deadline-miss" [ pw ]);
      (match List.filteri (fun k _ -> k >= prem_len) body with
      | (f : Pattern.fragment) :: _ -> (
          match f.ranges with
          | r :: _ ->
              let tr =
                List.map (fun n -> { Trace.name = n; time = 0 }) canon
                @ [ { Trace.name = r.Pattern.name; time = deadline + 1 } ]
              in
              add
                {
                  trace = tr;
                  final_time = Some (deadline + 1);
                  tag = "late-conclusion";
                }
          | [] -> ())
      | [] -> ())
    end;
    add { trace = Generate.valid (rng 1) p; final_time = None; tag = "gen-valid-1" };
    add { trace = Generate.valid (rng 2) p; final_time = None; tag = "gen-valid-2" };
    (match Generate.violating (rng 3) p with
    | Some t -> add { trace = t; final_time = None; tag = "gen-violating-1" }
    | None -> ());
    (match Generate.violating (rng 4) p with
    | Some t -> add { trace = t; final_time = None; tag = "gen-violating-2" }
    | None -> ());
    List.iteri
      (fun i t ->
        add { trace = t; final_time = None; tag = Printf.sprintf "user-%d" i })
      traces;
    List.rev !items
  end

(* ---- replay ------------------------------------------------------------- *)

let passed_item c inverted it =
  List.iter (fun e -> ignore (Compiled.step c e)) it.trace;
  let now =
    match it.final_time with Some n -> n | None -> Trace.end_time it.trace
  in
  let ok =
    match Compiled.finalize c ~now with
    | Compiled.Violated _ -> false
    | Compiled.Running | Compiled.Satisfied -> true
  in
  if inverted then not ok else ok

let preview it =
  let n = List.length it.trace in
  if n <= 40 then Witness.to_string it.trace
  else
    Printf.sprintf "%d events: %s ..." n
      (Witness.to_string (List.filteri (fun i _ -> i < 12) it.trace))

(* ---- tier (c): differential -------------------------------------------- *)

(* A pattern-level mutant is also replayed on the structural monitor,
   built independently of the table engine the mutant runs on; the
   two must agree on every item. *)
let differential ~items ~orig_make mutant ~divergences ~cross_checked =
  let direct =
    match mutant.pattern with
    | Some p' -> Some (Backend.direct p')
    | None -> None
  in
  let rec go = function
    | [] -> None
    | it :: rest ->
        let po = passed_item (orig_make ()) false it in
        let pm = passed_item (mutant.make ()) mutant.inverted it in
        (match direct with
        | Some b ->
            b.Backend.reset ();
            List.iter (fun e -> ignore (b.Backend.step e)) it.trace;
            let now =
              match it.final_time with
              | Some n -> n
              | None -> Trace.end_time it.trace
            in
            let pd = Backend.passed (b.Backend.finalize ~now) in
            incr cross_checked;
            if pd <> pm then
              divergences :=
                ( mutant.id,
                  Printf.sprintf "direct=%b compiled=%b on trace '%s'" pd pm
                    it.tag )
                :: !divergences
        | None -> ());
        if po <> pm then
          Some
            (Printf.sprintf "trace '%s' (%s): original %s, mutant %s" it.tag
               (preview it)
               (if po then "passes" else "fails")
               (if pm then "passes" else "fails"))
        else go rest
  in
  go items

(* ---- tier (b): exact product equivalence ------------------------------- *)

let aq_of (st : Machine.state) =
  match st.status with
  | Machine.Running cfg -> cfg.armed && cfg.q_done
  | _ -> false

let equivalence ~budget ~orig_make ~ma mutant =
  let mb = Machine.of_compiled ~exact:true (mutant.make ()) in
  let ex, union = Suite_checks.product ~budget ma mb in
  let da = Machine.deadline ma and db = Machine.deadline mb in
  let inv = mutant.inverted in
  let pass_a sa = not (Machine.is_violated sa) in
  let pass_b sb =
    let pb = not (Machine.is_violated sb) in
    if inv then not pb else pb
  in
  let d_viol (sa, sb) = pass_a sa <> pass_b sb in
  let d_time (sa, sb) =
    (not inv)
    &&
    let a = Machine.can_time_violate ma sa
    and b = Machine.can_time_violate mb sb in
    a <> b || (a && b && da <> db)
  in
  (* Late-conclusion guard: an (armed, q_done) configuration can still
     violate on a late conclusion event, which the event-level product
     does not model.  A difference here blocks the equivalence proof
     (the mutant falls through as a survivor candidate) but is not by
     itself a verified kill. *)
  let d_aq (sa, sb) =
    (not inv)
    &&
    let a = aq_of sa and b = aq_of sb in
    a <> b || (a && b && da <> db)
  in
  match Reach.find ex (fun s -> d_viol s || d_time s) with
  | Some node ->
      let steps = Reach.path ex node in
      let timed_any = Machine.timed ma || Machine.timed mb in
      let trace =
        if timed_any then
          List.map (fun (uid, _) -> { Trace.name = union.(uid); time = 0 }) steps
        else
          List.mapi
            (fun i (uid, _) -> { Trace.name = union.(uid); time = i })
            steps
      in
      let sa, sb = ex.Reach.states.(node) in
      let final =
        if d_viol (sa, sb) then Trace.end_time trace
        else
          let a = Machine.can_time_violate ma sa
          and b = Machine.can_time_violate mb sb in
          if a && b then min da db + 1 else if a then da + 1 else db + 1
      in
      let it = { trace; final_time = Some final; tag = "product" } in
      let po = passed_item (orig_make ()) false it in
      let pm = passed_item (mutant.make ()) mutant.inverted it in
      if po = pm then
        failwith
          (Printf.sprintf
             "Mutate: product witness for %s failed to replay (abstraction \
              soundness bug)"
             mutant.id);
      `Killed
        (Printf.sprintf "product state %d (%s, finalize@%d): original %s, \
                         mutant %s"
           node (preview it) final
           (if po then "passes" else "fails")
           (if pm then "passes" else "fails"))
  | None ->
      if ex.Reach.complete && Reach.find ex d_aq = None then `Stillborn
      else `Undecided

(* ---- tier (a): static findings ----------------------------------------- *)

let code_sig ?budget p =
  Checks.findings ?budget p
  |> List.filter_map (fun (f : Finding.t) ->
         if String.equal f.code "analysis-budget" then None else Some f.code)
  |> List.sort String.compare

let cross_sig ?budget label p others =
  Suite_checks.findings ?budget ((label, p) :: others)
  |> List.map (fun (f : Finding.t) ->
         (f.code, Option.value ~default:"" f.subject))
  |> List.sort compare

let static_kill ?budget ~orig_sig ~orig_cross label others mutant =
  match mutant.pattern with
  | None -> None (* table patches are not denotable; tiers (b)/(c) apply *)
  | Some p' ->
      let s = code_sig ?budget p' in
      if s <> orig_sig then
        Some
          (Printf.sprintf "per-pattern findings differ: {%s} vs {%s}"
             (String.concat ", " orig_sig)
             (String.concat ", " s))
      else if others <> [] && cross_sig ?budget label p' others <> orig_cross
      then Some "cross-pattern suite findings differ"
      else None

(* ---- the engine --------------------------------------------------------- *)

let run ?(budget = 200_000) ?(seed = 0x5eed)
    ?(tiers = [ Static; Equivalence; Differential ]) ?(traces = [])
    ?(weak = false) ?only entries =
  let has t = List.mem t tiers in
  let divergences = ref [] in
  let cross_checked = ref 0 in
  let results = ref [] in
  List.iter
    (fun (label, p) ->
      let muts =
        let all = mutants_of ~seed (label, p) in
        match only with
        | None -> all
        | Some id -> List.filter (fun m -> String.equal m.id id) all
      in
      if muts <> [] then begin
        let orig_make () = Compiled.compile p in
        let others =
          List.filter (fun (l, _) -> not (String.equal l label)) entries
        in
        let orig_sig = if has Static then code_sig ~budget p else [] in
        let orig_cross =
          if has Static && others <> [] then cross_sig ~budget label p others
          else []
        in
        let items =
          if has Differential then workload ~traces ~seed ~weak (label, p)
          else []
        in
        let ma = lazy (Machine.make ~exact:true p) in
        List.iter
          (fun mutant ->
            (* cheapest tier first; attribution stays per-tier exact *)
            let outcome =
              match
                if has Static then
                  static_kill ~budget ~orig_sig ~orig_cross label others mutant
                else None
              with
              | Some w -> Killed { tier = Static; witness = w }
              | None -> (
                  match
                    if has Differential then
                      differential ~items ~orig_make mutant ~divergences
                        ~cross_checked
                    else None
                  with
                  | Some w -> Killed { tier = Differential; witness = w }
                  | None ->
                      if has Equivalence then
                        match
                          equivalence ~budget ~orig_make ~ma:(Lazy.force ma)
                            mutant
                        with
                        | `Killed w -> Killed { tier = Equivalence; witness = w }
                        | `Stillborn -> Stillborn
                        | `Undecided -> Survived { undecided = true }
                      else Survived { undecided = false })
            in
            results := { mutant; outcome } :: !results)
          muts
      end)
    entries;
  let results = List.rev !results in
  let count f = List.length (List.filter f results) in
  let generated = List.length results in
  let stillborn = count (fun r -> r.outcome = Stillborn) in
  let killed t =
    count (fun r ->
        match r.outcome with Killed k -> k.tier = t | _ -> false)
  in
  let killed_static = killed Static in
  let killed_equivalence = killed Equivalence in
  let killed_differential = killed Differential in
  let survivors =
    List.filter
      (fun r -> match r.outcome with Survived _ -> true | _ -> false)
      results
  in
  let denom = generated - stillborn in
  let kill_rate =
    if denom <= 0 then 1.0
    else
      float (killed_static + killed_equivalence + killed_differential)
      /. float denom
  in
  {
    results;
    generated;
    stillborn;
    killed_static;
    killed_equivalence;
    killed_differential;
    survivors;
    kill_rate;
    cross_checked = !cross_checked;
    divergences = List.rev !divergences;
  }

(* ---- findings ----------------------------------------------------------- *)

let findings ?floor ?(suite = "SUITE") s =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  List.iter
    (fun r ->
      add
        (Finding.v ~subject:r.mutant.entry
           ~witness:
             (Printf.sprintf "loseq mutate %s --mutant %s" suite r.mutant.id)
           Finding.Warning "mutant-survived"
           "mutant '%s' (%s) survived: no static finding, no generated or \
            catalog trace and no reachable product state distinguishes it \
            from the original monitor"
           r.mutant.id r.mutant.description))
    s.survivors;
  List.iter
    (fun (id, detail) ->
      add
        (Finding.v ~subject:id Finding.Error "backend-divergence"
           "the structural and compiled monitors disagree while replaying \
            mutant '%s' (%s): the two backends implement different automata"
           id detail))
    s.divergences;
  (match floor with
  | Some pct when s.kill_rate *. 100. < pct ->
      add
        (Finding.v Finding.Error "mutation-kill-floor"
           "kill rate %.1f%% is below the configured floor of %.0f%%: the \
            trace set and analyzer would miss too many broken monitors"
           (s.kill_rate *. 100.) pct)
  | _ -> ());
  Finding.order (List.rev !fs)
