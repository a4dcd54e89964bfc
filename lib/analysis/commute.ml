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
   start from the observable, split classes whose successor class rows
   differ, stop at a fixpoint or after [rounds] splits.  Splits are
   always sound (states in different classes really are
   distinguishable by some suffix of length <= rounds performed);
   equality of classes certifies indistinguishability only when the
   fixpoint was reached.  [succ.(i * n_ids + id)] is the successor
   table.  A row (a class and its [n_ids] successor classes) is hashed
   once per round into an open-addressing table of representative
   states, and compared in place: no row is ever allocated. *)
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
  let size = ref 1 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let slots = Array.make !size (-1) and mask = !size - 1 in
  let hashes = Array.make n 0 in
  let next = Array.make n 0 in
  let same_row r i =
    cls.(r) = cls.(i)
    &&
    let rec loop id =
      id >= n_ids
      || cls.(succ.((r * n_ids) + id)) = cls.(succ.((i * n_ids) + id))
         && loop (id + 1)
    in
    loop 0
  in
  while (not !stable) && !round < rounds do
    incr round;
    Array.fill slots 0 !size (-1);
    let classes = ref 0 in
    for i = 0 to n - 1 do
      let h = ref cls.(i) in
      for id = 0 to n_ids - 1 do
        h := (!h * 1_000_003) + cls.(succ.((i * n_ids) + id))
      done;
      let h = !h in
      hashes.(i) <- h;
      let k = ref (Hashtbl.hash h land mask) in
      while
        slots.(!k) >= 0
        && not (hashes.(slots.(!k)) = h && same_row slots.(!k) i)
      do
        k := (!k + 1) land mask
      done;
      if slots.(!k) >= 0 then next.(i) <- next.(slots.(!k))
      else begin
        slots.(!k) <- i;
        next.(i) <- !classes;
        incr classes
      end
    done;
    if !classes = !prev then stable := true
    else begin
      Array.blit next 0 cls 0 n;
      prev := !classes
    end
  done;
  (cls, !stable)

(* The successor table of a deterministic exploration:
   [t.(i * n_ids + id)] is the index of state [i]'s [id]-successor, or
   [-1] where the budget cut it off.  Final states are absorbing: their
   own successors. *)
let successors ex =
  let sys = ex.Reach.system in
  let n = sys.Reach.n_ids in
  let t = Array.make (Array.length ex.Reach.states * n) (-1) in
  Array.iteri
    (fun i s ->
      if sys.Reach.final s then Array.fill t (i * n) n i
      else
        List.iter
          (fun (id, j) ->
            if t.((i * n) + id) >= 0 then
              invalid_arg "Commute: exact machine must be deterministic";
            t.((i * n) + id) <- j)
          ex.Reach.succ.(i))
    ex.Reach.states;
  t

(* The pairwise race scan of a deterministic exploration, shared by a
   single machine and a product.  For each pair of event ids [(a, b)],
   [a < b], that is [relevant], scan the states in BFS order for the
   first where [ab] and [ba] reach states the observable [obs] tells
   apart, now ([obs] differs) or after some suffix (their refinement
   classes differ); [witness i a b suffix] builds that race.  Successor
   states are compared by index; a successor the budget cut off (no
   index, and no refinement then) is stepped.  Returns the races, the
   commuting pairs and whether every pair was decided. *)
let scan ~budget ~refine_rounds ~obs ~relevant ~witness ex =
  let sys = ex.Reach.system in
  let n = sys.Reach.n_ids in
  let states = ex.Reach.states in
  let nstates = Array.length states in
  let step1 s id =
    match sys.Reach.step s id with
    | [ s' ] -> s'
    | _ -> invalid_arg "Commute: exact machine must be deterministic"
  in
  let succ = successors ex in
  let obsv = Array.map obs states in
  (* verdict-equivalence classes; only meaningful when exploration
     covered the whole space *)
  let tables =
    if not ex.Reach.complete then None
    else Some (refine ~rounds:refine_rounds ~n_ids:n ~succ obsv)
  in
  let stable = match tables with Some (_, s) -> s | None -> false in
  (* Distinguishing suffix (event ids) for a pair of states known or
     suspected to differ: lock-step BFS until the observable splits. *)
  let suffix_between u v =
    if obs u <> obs v then Some []
    else
      let psys =
        {
          Reach.init = (u, v);
          n_ids = n;
          step = (fun (x, y) id -> [ (step1 x id, step1 y id) ]);
          final = (fun (x, y) -> obs x <> obs y);
          hash = Reach.pair_hash sys.Reach.hash sys.Reach.hash;
          equal = Reach.pair_equal sys.Reach.equal sys.Reach.equal;
        }
      in
      let pex = Reach.explore ~budget psys in
      match Reach.find pex (fun (x, y) -> obs x <> obs y) with
      | Some j -> Some (List.map fst (Reach.path pex j))
      | None -> None
  in
  (* state [i] after [a] then [b]: its index, or [-1] if cut off *)
  let after i a b =
    let j = succ.((i * n) + a) in
    if j < 0 then -1 else succ.((j * n) + b)
  in
  let state_after i a b =
    let j = succ.((i * n) + a) in
    if j < 0 then step1 (step1 states.(i) a) b
    else
      let k = succ.((j * n) + b) in
      if k < 0 then step1 states.(j) b else states.(k)
  in
  let races = ref [] and commuting = ref [] and all_decided = ref true in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if relevant a b then begin
        let race = ref None and decided = ref true in
        let i = ref 0 in
        while !race = None && !i < nstates do
          let jab = after !i a b and jba = after !i b a in
          let differs =
            if jab >= 0 && jba >= 0 then
              if jab = jba then None
              else if obsv.(jab) <> obsv.(jba) then Some (Some [])
              else
                match tables with
                | Some (cls, stable) ->
                    if cls.(jab) <> cls.(jba) then
                      Some (suffix_between states.(jab) states.(jba))
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
            else
              let sab = state_after !i a b and sba = state_after !i b a in
              if sys.Reach.equal sab sba then None
              else if obs sab <> obs sba then Some (Some [])
              else begin
                decided := false;
                None
              end
          in
          (match differs with
          | Some (Some suffix) -> race := Some (witness !i a b suffix)
          | Some None -> decided := false (* suffix search hit the budget *)
          | None -> ());
          incr i
        done;
        match !race with
        | Some r -> races := r :: !races
        | None ->
            if !decided && ex.Reach.complete && stable then
              commuting := (a, b) :: !commuting
            else all_decided := false
      end
    done
  done;
  ( List.rev !races,
    List.rev !commuting,
    ex.Reach.complete && stable && !all_decided )

(* The analysis of one canonical form ([p]); a failure names the
   concrete pattern. *)
let analyze_canonical ~budget ~refine_rounds c =
  let p = Canon.pattern c in
  let m, ex = Memo.explore ~budget ~exact:true c in
  let time_sensitive = Reach.find ex (Machine.can_time_violate m) <> None in
  let timed = Machine.timed m in
  let ft = final_time_for p in
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
  let races, commuting, complete =
    scan ~budget ~refine_rounds
      ~obs:(fun s -> Bool.to_int (obs m s))
      ~relevant:(fun _ _ -> true)
      ~witness ex
  in
  {
    pattern = p;
    complete;
    races;
    commuting =
      List.map (fun (a, b) -> (Machine.name m a, Machine.name m b)) commuting;
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
  let ex, union = Suite_checks.product ~budget ma mb in
  let in_alpha alpha = Array.map (fun nm -> Name.Set.mem nm alpha) union in
  let in_a = in_alpha alpha_a and in_b = in_alpha alpha_b in
  (* The joint observable a sequencer acts on: which of the two
     checkers decides FAIL under its own adversarial finalization. *)
  let pobs (sa, sb) =
    (if obs ma sa then 1 else 0) lor if obs mb sb then 2 else 0
  in
  (* A pair is cross-checker relevant unless it is wholly private to
     one checker (those races belong to that checker's own [analyze]). *)
  let private_to mine other u v =
    mine.(u) && mine.(v) && (not other.(u)) && not other.(v)
  in
  let relevant u v =
    (not (private_to in_a in_b u v)) && not (private_to in_b in_a u v)
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
  let races, commuting, complete =
    scan ~budget ~refine_rounds ~obs:pobs ~relevant ~witness ex
  in
  {
    labels = (la, lb);
    complete;
    cross_races = races;
    cross_commuting = List.map (fun (a, b) -> (union.(a), union.(b))) commuting;
    shared = Name.Set.elements (Name.Set.inter alpha_a alpha_b);
  }
