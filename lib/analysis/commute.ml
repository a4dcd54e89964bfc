open Loseq_core

type race = {
  a : Name.t;
  b : Name.t;
  trace_ab : Trace.t;
  trace_ba : Trace.t;
  ab_passes : bool;
  time_divergence : bool;
}

type result = {
  pattern : Pattern.t;
  complete : bool;
  races : race list;
  commuting : (Name.t * Name.t) list;
  time_sensitive : bool;
}

let final_time_for = function
  | Pattern.Timed t -> Some (t.Pattern.deadline + 1)
  | Pattern.Antecedent _ -> None

(* The only observable a hosting layer acts on once the trace ends:
   does this configuration decide FAIL under the adversarial
   finalization of [final_time_for]?  Violated states fail outright;
   armed-not-yet-recognized timed configurations fail because the
   witness timestamps are all zero and the finalization instant is past
   the deadline.  Everything else passes. *)
let obs m s = Machine.is_violated s || Machine.can_time_violate m s

(* Moore partition refinement over the (complete) explored state set:
   start from the two-valued observable, split classes whose successor
   class rows differ, stop at a fixpoint or after [rounds] splits.
   Splits are always sound (states in different classes really are
   distinguishable by some suffix of length <= rounds performed);
   equality of classes certifies indistinguishability only when the
   fixpoint was reached. *)
let refine ~rounds ~n_ids ~succ cls0 =
  let n = Array.length cls0 in
  let cls = Array.copy cls0 in
  let count p =
    let t = Hashtbl.create 16 in
    Array.iter (fun c -> if not (Hashtbl.mem t c) then Hashtbl.add t c ()) p;
    Hashtbl.length t
  in
  let prev = ref (count cls) in
  let stable = ref false in
  let round = ref 0 in
  while (not !stable) && !round < rounds do
    incr round;
    let signature = Hashtbl.create (2 * n) in
    let next = Array.make n 0 in
    let classes = ref 0 in
    for i = 0 to n - 1 do
      let key = cls.(i) :: List.init n_ids (fun id -> cls.(succ.(i).(id))) in
      (match Hashtbl.find_opt signature key with
      | Some c -> next.(i) <- c
      | None ->
          let c = !classes in
          incr classes;
          Hashtbl.add signature key c;
          next.(i) <- c)
    done;
    if !classes = !prev then stable := true
    else begin
      Array.blit next 0 cls 0 n;
      prev := !classes
    end
  done;
  (cls, !stable)

(* The analysis of one canonical form ([p]); a failure names the
   concrete pattern. *)
let analyze_canonical ~budget ~refine_rounds c =
  let p = Canon.pattern c in
  let m, ex = Memo.explore ~budget ~exact:true c in
  let n = Machine.n_ids m in
  let states = ex.Reach.states in
  let nstates = Array.length states in
  let time_sensitive = Reach.find ex (Machine.can_time_violate m) <> None in
  let step1 s id =
    match Machine.step m s id with
    | [ s' ] -> s'
    | _ -> invalid_arg "Commute.analyze: exact machine must be deterministic"
  in
  (* Successor index table and verdict-equivalence classes; only
     meaningful when exploration covered the whole space. *)
  let tables =
    if not ex.Reach.complete then None
    else begin
      let idx = Hashtbl.create (2 * nstates) in
      Array.iteri (fun i s -> Hashtbl.replace idx s i) states;
      let succ = Array.make_matrix nstates n 0 in
      for i = 0 to nstates - 1 do
        let s = states.(i) in
        for id = 0 to n - 1 do
          succ.(i).(id) <- Hashtbl.find idx (step1 s id)
        done
      done;
      let cls0 = Array.map (fun s -> if obs m s then 1 else 0) states in
      let cls, stable = refine ~rounds:refine_rounds ~n_ids:n ~succ cls0 in
      Some (succ, cls, stable)
    end
  in
  let stable = match tables with Some (_, _, s) -> s | None -> false in
  let timed = Machine.timed m in
  let ft = final_time_for p in
  (* Distinguishing suffix (event ids) for a pair of states known or
     suspected to differ: lock-step BFS until the observable splits. *)
  let suffix_between u v =
    if obs m u <> obs m v then Some []
    else
      let psys =
        {
          Reach.init = (u, v);
          n_ids = n;
          step = (fun (x, y) id -> [ (step1 x id, step1 y id) ]);
          final = (fun (x, y) -> obs m x <> obs m y);
        }
      in
      let pex = Reach.explore ~budget psys in
      match Reach.find pex (fun (x, y) -> obs m x <> obs m y) with
      | Some j -> Some (List.map fst (Reach.path pex j))
      | None -> None
  in
  let witness i ida idb suffix_ids =
    let prefix, _ = Witness.concretize m (Reach.path ex i) in
    let na = Machine.name m ida and nb = Machine.name m idb in
    let mk order =
      let names =
        Trace.names prefix @ order @ List.map (Machine.name m) suffix_ids
      in
      if timed then List.map (fun nm -> Trace.event ~time:0 nm) names
      else List.mapi (fun t nm -> Trace.event ~time:t nm) names
    in
    let trace_ab = mk [ na; nb ] and trace_ba = mk [ nb; na ] in
    let pass tr = Compiled.accepts ?final_time:ft p tr in
    let ab_passes = pass trace_ab and ba_passes = pass trace_ba in
    if ab_passes = ba_passes then
      failwith
        (Format.asprintf
           "Commute.analyze: twin traces agree on %a (abstraction bug)"
           Pattern.pp (Canon.concrete c));
    let time_divergence =
      match ft with
      | None -> false
      | Some _ -> Compiled.accepts p trace_ab = Compiled.accepts p trace_ba
    in
    { a = na; b = nb; trace_ab; trace_ba; ab_passes; time_divergence }
  in
  let races = ref [] and commuting = ref [] and all_decided = ref true in
  for ida = 0 to n - 1 do
    for idb = ida + 1 to n - 1 do
      let race = ref None and decided = ref true in
      let i = ref 0 in
      while !race = None && !i < nstates do
        let s = states.(!i) in
        let sab = step1 (step1 s ida) idb and sba = step1 (step1 s idb) ida in
        if sab <> sba then begin
          let differs =
            if obs m sab <> obs m sba then Some (Some [])
            else
              match tables with
              | Some (succ, cls, stable) ->
                  let jab = succ.(succ.(!i).(ida)).(idb)
                  and jba = succ.(succ.(!i).(idb)).(ida) in
                  if cls.(jab) <> cls.(jba) then Some (suffix_between sab sba)
                  else if stable then None (* certified equivalent here *)
                  else begin
                    decided := false;
                    None
                  end
              | None ->
                  (* truncated exploration: only immediate observable
                     divergence is checked; anything subtler stays
                     undecided *)
                  decided := false;
                  None
          in
          match differs with
          | Some (Some suffix) -> race := Some (witness !i ida idb suffix)
          | Some None -> decided := false (* suffix search hit the budget *)
          | None -> ()
        end;
        incr i
      done;
      (match !race with
      | Some r -> races := r :: !races
      | None ->
          if !decided && ex.Reach.complete && stable then
            commuting := (Machine.name m ida, Machine.name m idb) :: !commuting
          else all_decided := false)
    done
  done;
  {
    pattern = p;
    complete = ex.Reach.complete && stable && !all_decided;
    races = List.rev !races;
    commuting = List.rev !commuting;
    time_sensitive;
  }

let results = Memo.results ()

let analyze ?(budget = 200_000) ?(refine_rounds = 64) p =
  let c, r =
    Memo.result results ~budget ~rounds:refine_rounds
      (analyze_canonical ~budget ~refine_rounds)
      p
  in
  let name = Canon.name c and trace = Canon.trace c in
  {
    r with
    pattern = p;
    races =
      List.map
        (fun (x : race) ->
          {
            x with
            a = name x.a;
            b = name x.b;
            trace_ab = trace x.trace_ab;
            trace_ba = trace x.trace_ba;
          })
        r.races;
    commuting = List.map (fun (a, b) -> (name a, name b)) r.commuting;
  }

(* ---- cross-checker commutation on the synchronous product ------------- *)

type product_race = {
  label_a : string;
  label_b : string;
  a : Name.t;
  b : Name.t;
  trace_ab : Trace.t;
  trace_ba : Trace.t;
  ab_verdicts : bool * bool;
  ba_verdicts : bool * bool;
}

type product_result = {
  labels : string * string;
  complete : bool;
  cross_races : product_race list;
  cross_commuting : (Name.t * Name.t) list;
  shared : Name.t list;
}

let analyze_product ?(budget = 200_000) ?(refine_rounds = 64) (la, pa) (lb, pb)
    =
  let ma = Machine.make ~exact:true pa and mb = Machine.make ~exact:true pb in
  let alpha_a = Pattern.alpha pa and alpha_b = Pattern.alpha pb in
  let union =
    Array.of_list (Name.Set.elements (Name.Set.union alpha_a alpha_b))
  in
  let n = Array.length union in
  let id_in m =
    let tbl = Hashtbl.create 16 in
    for i = 0 to Machine.n_ids m - 1 do
      Hashtbl.replace tbl (Machine.name m i) i
    done;
    Array.map
      (fun nm -> match Hashtbl.find_opt tbl nm with Some i -> i | None -> -1)
      union
  in
  let ida = id_in ma and idb = id_in mb in
  let step1 m s id =
    match Machine.step m s id with
    | [ s' ] -> s'
    | _ ->
        invalid_arg "Commute.analyze_product: exact machine must be \
                     deterministic"
  in
  let pstep (sa, sb) uid =
    ( (if ida.(uid) >= 0 then step1 ma sa ida.(uid) else sa),
      if idb.(uid) >= 0 then step1 mb sb idb.(uid) else sb )
  in
  (* The joint observable a sequencer acts on: which of the two
     checkers decides FAIL under its own adversarial finalization. *)
  let pobs (sa, sb) =
    (if obs ma sa then 1 else 0) lor if obs mb sb then 2 else 0
  in
  let sys =
    {
      Reach.init = (Machine.init ma, Machine.init mb);
      n_ids = n;
      step = (fun s uid -> [ pstep s uid ]);
      final = (fun (sa, sb) -> Machine.is_final sa && Machine.is_final sb);
    }
  in
  let ex = Reach.explore ~budget sys in
  let states = ex.Reach.states in
  let nstates = Array.length states in
  let tables =
    if not ex.Reach.complete then None
    else begin
      let idx = Hashtbl.create (2 * nstates) in
      Array.iteri (fun i s -> Hashtbl.replace idx s i) states;
      let succ = Array.make_matrix nstates n 0 in
      for i = 0 to nstates - 1 do
        for uid = 0 to n - 1 do
          succ.(i).(uid) <- Hashtbl.find idx (pstep states.(i) uid)
        done
      done;
      let cls, stable =
        refine ~rounds:refine_rounds ~n_ids:n ~succ (Array.map pobs states)
      in
      Some (succ, cls, stable)
    end
  in
  let stable = match tables with Some (_, _, s) -> s | None -> false in
  (* A pair is cross-checker relevant unless it is wholly private to
     one checker (those races belong to that checker's own [analyze]). *)
  let private_to mine other u v =
    let in_m id = id >= 0 in
    in_m mine.(u) && in_m mine.(v) && (not (in_m other.(u)))
    && not (in_m other.(v))
  in
  let relevant u v =
    (not (private_to ida idb u v)) && not (private_to idb ida u v)
  in
  let suffix_between u v =
    if pobs u <> pobs v then Some []
    else
      let psys =
        {
          Reach.init = (u, v);
          n_ids = n;
          step = (fun (x, y) uid -> [ (pstep x uid, pstep y uid) ]);
          final = (fun (x, y) -> pobs x <> pobs y);
        }
      in
      let pex = Reach.explore ~budget psys in
      match Reach.find pex (fun (x, y) -> pobs x <> pobs y) with
      | Some j -> Some (List.map fst (Reach.path pex j))
      | None -> None
  in
  let timed_any = Machine.timed ma || Machine.timed mb in
  let fta = final_time_for pa and ftb = final_time_for pb in
  let witness i ua ub suffix_ids =
    (* Exact product machines are deterministic and counter-exact, so
       the BFS path concretizes 1:1 — no pumping (cf.
       [Suite_checks.product_witness]). *)
    let prefix = List.map (fun (uid, _) -> union.(uid)) (Reach.path ex i) in
    let mk order =
      let names = prefix @ order @ List.map (fun uid -> union.(uid)) suffix_ids in
      if timed_any then List.map (fun nm -> Trace.event ~time:0 nm) names
      else List.mapi (fun t nm -> Trace.event ~time:t nm) names
    in
    let na = union.(ua) and nb = union.(ub) in
    let trace_ab = mk [ na; nb ] and trace_ba = mk [ nb; na ] in
    let verdicts tr =
      ( Compiled.accepts ?final_time:fta pa tr,
        Compiled.accepts ?final_time:ftb pb tr )
    in
    let ab_verdicts = verdicts trace_ab and ba_verdicts = verdicts trace_ba in
    if ab_verdicts = ba_verdicts then
      failwith
        (Format.asprintf
           "Commute.analyze_product: twin traces agree on %s x %s \
            (abstraction bug)"
           la lb);
    { label_a = la; label_b = lb; a = na; b = nb; trace_ab; trace_ba;
      ab_verdicts; ba_verdicts }
  in
  let races = ref [] and commuting = ref [] and all_decided = ref true in
  for ua = 0 to n - 1 do
    for ub = ua + 1 to n - 1 do
      if relevant ua ub then begin
        let race = ref None and decided = ref true in
        let i = ref 0 in
        while !race = None && !i < nstates do
          let s = states.(!i) in
          let sab = pstep (pstep s ua) ub and sba = pstep (pstep s ub) ua in
          if sab <> sba then begin
            let differs =
              if pobs sab <> pobs sba then Some (Some [])
              else
                match tables with
                | Some (succ, cls, stable) ->
                    let jab = succ.(succ.(!i).(ua)).(ub)
                    and jba = succ.(succ.(!i).(ub)).(ua) in
                    if cls.(jab) <> cls.(jba) then Some (suffix_between sab sba)
                    else if stable then None
                    else begin
                      decided := false;
                      None
                    end
                | None ->
                    decided := false;
                    None
            in
            match differs with
            | Some (Some suffix) -> race := Some (witness !i ua ub suffix)
            | Some None -> decided := false
            | None -> ()
          end;
          incr i
        done;
        match !race with
        | Some r -> races := r :: !races
        | None ->
            if !decided && ex.Reach.complete && stable then
              commuting := (union.(ua), union.(ub)) :: !commuting
            else all_decided := false
      end
    done
  done;
  {
    labels = (la, lb);
    complete = ex.Reach.complete && stable && !all_decided;
    cross_races = List.rev !races;
    cross_commuting = List.rev !commuting;
    shared = Name.Set.elements (Name.Set.inter alpha_a alpha_b);
  }
