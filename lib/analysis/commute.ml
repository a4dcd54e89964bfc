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

(* Hopcroft's partition refinement over the (complete) explored state
   set: the coarsest partition that refines the observable [obs] and
   is compatible with the successor table [succ.(i * n_ids + id)],
   which must be total.  Two states share a class exactly when no
   suffix tells them apart, so every complete exploration is decided.

   Blocks are contiguous slices [first.(b), past.(b)) of the
   permutation [elems]; [loc] inverts it.  A splitter block is copied
   out before use, then for each event id its predecessors are marked
   by moving them to the front of their blocks.  A partly marked block
   splits, the smaller part becoming the new block and the next
   splitter; that keeps the work in O(n_ids * n log n). *)
let refine ~n_ids ~succ obs =
  let n = Array.length obs in
  (* predecessors of state [j] on [id], in [pre.(pre_first.(j * n_ids
     + id)) ..] up to the next entry *)
  let pre_first = Array.make ((n * n_ids) + 1) 0 in
  Array.iteri
    (fun k j ->
      let slot = (j * n_ids) + (k mod n_ids) + 1 in
      pre_first.(slot) <- pre_first.(slot) + 1)
    succ;
  for k = 1 to n * n_ids do
    pre_first.(k) <- pre_first.(k) + pre_first.(k - 1)
  done;
  let pre = Array.make (n * n_ids) 0 in
  let fill = Array.sub pre_first 0 (n * n_ids) in
  Array.iteri
    (fun k j ->
      let slot = (j * n_ids) + (k mod n_ids) in
      pre.(fill.(slot)) <- k / n_ids;
      fill.(slot) <- fill.(slot) + 1)
    succ;
  (* the initial partition: one block per observable value *)
  let cls = Array.make n 0 in
  let values = Hashtbl.create 4 in
  Array.iteri
    (fun i o ->
      match Hashtbl.find_opt values o with
      | Some b -> cls.(i) <- b
      | None ->
          let b = Hashtbl.length values in
          Hashtbl.add values o b;
          cls.(i) <- b)
    obs;
  let blocks = ref (Hashtbl.length values) in
  let first = Array.make n 0 and past = Array.make n 0 in
  Array.iter (fun b -> past.(b) <- past.(b) + 1) cls;
  for b = 1 to !blocks - 1 do
    first.(b) <- past.(b - 1);
    past.(b) <- past.(b) + past.(b - 1)
  done;
  let elems = Array.make n 0 and loc = Array.make n 0 in
  let fill = Array.sub first 0 n in
  Array.iteri
    (fun i b ->
      elems.(fill.(b)) <- i;
      loc.(i) <- fill.(b);
      fill.(b) <- fill.(b) + 1)
    cls;
  let marked = Array.make n 0 in
  let waiting = Stack.create () in
  (* every initial block but the largest: its preimage is implied *)
  let largest = ref 0 in
  for b = 1 to !blocks - 1 do
    if past.(b) - first.(b) > past.(!largest) - first.(!largest) then
      largest := b
  done;
  for b = 0 to !blocks - 1 do
    if b <> !largest then Stack.push b waiting
  done;
  let touched = Stack.create () and splitter = Array.make n 0 in
  let mark i =
    let b = cls.(i) in
    let slot = first.(b) + marked.(b) in
    if loc.(i) >= slot then begin
      let other = elems.(slot) in
      elems.(loc.(i)) <- other;
      loc.(other) <- loc.(i);
      elems.(slot) <- i;
      loc.(i) <- slot;
      if marked.(b) = 0 then Stack.push b touched;
      marked.(b) <- marked.(b) + 1
    end
  in
  let split b =
    let m = marked.(b) in
    marked.(b) <- 0;
    if m < past.(b) - first.(b) then begin
      let nb = !blocks in
      incr blocks;
      (* the smaller part becomes [nb]: the marked prefix or the rest *)
      if 2 * m <= past.(b) - first.(b) then begin
        first.(nb) <- first.(b);
        past.(nb) <- first.(b) + m;
        first.(b) <- first.(b) + m
      end
      else begin
        first.(nb) <- first.(b) + m;
        past.(nb) <- past.(b);
        past.(b) <- first.(b) + m
      end;
      for k = first.(nb) to past.(nb) - 1 do
        cls.(elems.(k)) <- nb
      done;
      (* whether or not [b] is still waiting, [nb] must be *)
      Stack.push nb waiting
    end
  in
  while not (Stack.is_empty waiting) do
    let c = Stack.pop waiting in
    let size = past.(c) - first.(c) in
    Array.blit elems first.(c) splitter 0 size;
    for id = 0 to n_ids - 1 do
      for k = 0 to size - 1 do
        let slot = (splitter.(k) * n_ids) + id in
        for q = pre_first.(slot) to pre_first.(slot + 1) - 1 do
          mark pre.(q)
        done
      done;
      while not (Stack.is_empty touched) do
        split (Stack.pop touched)
      done
    done
  done;
  cls

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
   classes differ); [witness i a b suffix] builds that race, or is
   [None] when its twin traces would exceed the budget, which leaves
   the pair undecided.  Successor
   states are compared by index; a successor the budget cut off (no
   index, and no refinement then) is stepped.  Returns the races, the
   commuting pairs and whether every pair was decided. *)
let scan ~budget ~obs ~relevant ~witness ex =
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
  let classes =
    if not ex.Reach.complete then None
    else Some (refine ~n_ids:n ~succ obsv)
  in
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
                match classes with
                | Some cls ->
                    if cls.(jab) <> cls.(jba) then
                      Some (suffix_between states.(jab) states.(jba))
                    else None (* certified equivalent here *)
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
          | Some (Some suffix) -> (
              match witness !i a b suffix with
              | Some r -> race := Some r
              | None ->
                  (* racy, but its twin traces exceed the budget *)
                  decided := false;
                  i := nstates)
          | Some None -> decided := false (* suffix search hit the budget *)
          | None -> ());
          incr i
        done;
        match !race with
        | Some r -> races := r :: !races
        | None ->
            if !decided && ex.Reach.complete then
              commuting := (a, b) :: !commuting
            else all_decided := false
      end
    done
  done;
  ( List.rev !races,
    List.rev !commuting,
    ex.Reach.complete && !all_decided )

(* ---- clamped range counters ----------------------------------------- *)

(* The per-entry questions are decided on the pattern with every range
   [u,v] clamped to [u',v'] = [min u k, min u k + min (v-u) k].  A
   counter only ever restarts at 1, counts one maximal run of its own
   name, and is compared with [u] and [v]; so a verdict depends on a
   run of length [n] only through which of [n < u], [u <= n <= v],
   [n > v] holds, and an adjacent swap lengthens the run next to it by
   one.  With k >= 3 the clamped bounds keep every such region and
   every pair of adjacent regions non-empty exactly when the real
   bounds do, so races, commuting pairs and [time_sensitive] agree
   (DESIGN.md, "Clamped range counters").  3 is the least such k. *)
let clamp_k = 3

let clamp_range (r : Pattern.range) =
  let lo = min r.lo clamp_k in
  Pattern.range ~lo ~hi:(lo + min (r.hi - r.lo) clamp_k) r.name

let clamp = Pattern.map_ranges clamp_range

let sat_add a b = if a > max_int - b then max_int else a + b

(* The length of a real run standing for a clamped run of [n] events
   of a range clamped from [u,v] to [u',v']: the least real length in
   the same region whose successor is also in the successor's region,
   so a run the swap lengthens by one keeps both regions, and a least
   clamped witness maps to a least real one.  Saturates at [max_int]. *)
let stretch (r : Pattern.range) n =
  let r' = clamp_range r in
  if n < r'.lo - 1 then n
  else if n < r'.hi then sat_add n (r.lo - r'.lo)
  else sat_add n (r.hi - r'.hi)

(* The maximal runs of a clamped word, each as its name and real
   length: a range's own name gets its {!stretch}ed length, other
   names (triggers) keep theirs. *)
let runs ranges names =
  let rec go acc = function
    | [] -> List.rev acc
    | nm :: _ as l ->
        let rec run k = function
          | x :: rest when Name.equal x nm -> run (k + 1) rest
          | rest -> (k, rest)
        in
        let k, rest = run 0 l in
        let k =
          match Name.Map.find_opt nm ranges with
          | Some r -> stretch r k
          | None -> k
        in
        go ((nm, k) :: acc) rest
  in
  go [] names

let runs_length = List.fold_left (fun acc (_, k) -> sat_add acc k) 0
let expand = List.concat_map (fun (nm, k) -> List.init k (fun _ -> nm))

(* The analysis of [p] on the exploration [(m, ex)] of [p] itself or of
   its {!clamp}; [ranges] maps each name whose runs are re-expanded to
   its real range (empty for [p]'s own machine).  Witnesses are
   replayed on [p]; a failure names [concrete].  A race whose twin
   traces would exceed [budget] events leaves its pair undecided. *)
let analysis ~budget ~ranges ~concrete p (m, ex) =
  let time_sensitive = Reach.find ex (Machine.can_time_violate m) <> None in
  let timed = Machine.timed m in
  let ft = final_time_for p in
  let witness i ida idb suffix_ids =
    let prefix, _ = Witness.concretize m (Reach.path ex i) in
    let prefix = runs ranges (Trace.names prefix)
    and suffix = runs ranges (List.map (Machine.name m) suffix_ids) in
    (* sized before anything is built: a real bound of 10^9 re-expands
       a two-event clamped run to 10^9 events *)
    if sat_add (runs_length prefix) (runs_length suffix) > budget - 2 then None
    else
      let na = Machine.name m ida and nb = Machine.name m idb in
      let prefix = expand prefix and suffix = expand suffix in
      let mk order =
        let names = prefix @ order @ suffix in
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
             Pattern.pp concrete);
      let time_divergence =
        match ft with
        | None -> false
        | Some _ -> Compiled.accepts p trace_ab = Compiled.accepts p trace_ba
      in
      Some { a = na; b = nb; trace_ab; trace_ba; ab_passes; time_divergence }
  in
  let races, commuting, complete =
    scan ~budget
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

(* One canonical form, on its clamped pattern: runs re-expand to the
   canonical pattern's bounds. *)
let analyze_canonical ~budget c =
  let p = Canon.pattern c in
  let ranges =
    List.fold_left
      (fun acc (f : Pattern.fragment) ->
        List.fold_left
          (fun acc (r : Pattern.range) -> Name.Map.add r.name r acc)
          acc f.ranges)
      Name.Map.empty (Pattern.body_ordering p)
  in
  analysis ~budget ~ranges ~concrete:(Canon.concrete c) p
    (Memo.explore ~budget ~exact:true (Canon.make (clamp p)))

let results = Memo.results ()

let analyze ?(budget = 200_000) p =
  let c, r = Memo.result results ~budget (analyze_canonical ~budget) p in
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

let analyze_exact ?(budget = 200_000) p =
  Wellformed.check_exn p;
  let m = Machine.make ~exact:true p in
  analysis ~budget ~ranges:Name.Map.empty ~concrete:p p
    (m, Reach.explore ~budget (Machine.system m))

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

let analyze_product ?(budget = 200_000) (la, pa) (lb, pb) =
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
    Some
      { label_a = la; label_b = lb; a = na; b = nb; trace_ab; trace_ba;
        ab_verdicts; ba_verdicts }
  in
  let races, commuting, complete =
    scan ~budget ~obs:pobs ~relevant ~witness ex
  in
  {
    labels = (la, lb);
    complete;
    cross_races = races;
    cross_commuting = List.map (fun (a, b) -> (union.(a), union.(b))) commuting;
    shared = Name.Set.elements (Name.Set.inter alpha_a alpha_b);
  }
