open Loseq_core

(* ---- cost model -------------------------------------------------------- *)

type cost = {
  slab_slots : int;
  reach_states : int;
  profile_steps : int;
  total : int;
}

(* Bit-width of [n]: how the abstract state count enters the scalar.
   A monitor's per-event cost is its fragment width (the slab slots),
   not a state-space walk — the reachable count only measures how much
   run information the checker tracks, so it contributes its
   information content, not its magnitude. *)
let bits n =
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let cost_of ?budget ~eng ~profile ~measured ck (label, p) =
  let slab_slots = Flat.checker_slots eng ck in
  let _, ex = Memo.explore ?budget ~exact:false (Canon.make p) in
  let reach_states = Array.length ex.Reach.states in
  let profile_steps =
    (* Measured per-checker step counts (a [loseq-profile/1] artifact
       produced by a live run) take precedence over re-deriving the
       load from a raw profile trace. *)
    match List.assoc_opt label measured with
    | Some steps -> max 0 steps
    | None -> (
        match profile with
        | None -> 0
        | Some tr ->
            let alpha = Pattern.alpha p in
            List.fold_left
              (fun n (e : Trace.event) ->
                if Name.Set.mem e.name alpha then n + 1 else n)
              0 tr)
  in
  let total = slab_slots + bits reach_states + profile_steps in
  { slab_slots; reach_states; profile_steps; total }

(* ---- measured profiles ------------------------------------------------- *)

(* Parse a [loseq-profile/1] artifact (what a live run's [--profile-out]
   or [loseq trace] emits) into the [measured] association list
   [analyze] consumes.  Strict on the schema tag so a shard plan never
   silently ingests the wrong artifact family. *)
let profile_of_json json =
  match Json.member "schema" json with
  | Some (Json.String "loseq-profile/1") -> (
      match Option.bind (Json.member "checkers" json) Json.to_list_opt with
      | None -> Error "loseq-profile/1: missing \"checkers\" array"
      | Some entries ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest -> (
                match
                  ( Option.bind (Json.member "label" e) Json.to_string_opt,
                    Json.member "steps" e )
                with
                | Some label, Some (Json.Int steps) ->
                    go ((label, steps) :: acc) rest
                | _ ->
                    Error
                      "loseq-profile/1: checker entry needs \"label\" \
                       (string) and \"steps\" (int)")
          in
          go [] entries)
  | Some (Json.String other) ->
      Error (Printf.sprintf "unsupported profile schema %S" other)
  | Some _ | None -> Error "not a loseq-profile/1 artifact (no schema tag)"

(* ---- interference graph ------------------------------------------------ *)

type edge = {
  i : int;
  j : int;
  shared : Name.t list;
  cross_races : Commute.product_race list;
  product_complete : bool;
  deadline_coupled : bool;
}

(* A race on a pair BOTH checkers observe: the duplicated pair would
   be delivered to two shards, and independent per-shard reordering
   could consume it in different orders — the one hazard in-order
   slice delivery cannot absorb.  A race on a mixed pair (one name
   private to its owner) is the owner's internal business: its shard
   sees both names, in trace order. *)
let hard_races e =
  List.filter
    (fun (r : Commute.product_race) ->
      List.mem r.Commute.a e.shared && List.mem r.Commute.b e.shared)
    e.cross_races

let hard e =
  hard_races e <> [] || ((not e.product_complete) && e.shared <> [])

let is_timed = function Pattern.Timed _ -> true | Pattern.Antecedent _ -> false

let edges_of ?budget entries =
  let n = Array.length entries in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let _, pi = entries.(i) and _, pj = entries.(j) in
      let shared =
        Name.Set.elements (Name.Set.inter (Pattern.alpha pi) (Pattern.alpha pj))
      in
      let deadline_coupled = is_timed pi && is_timed pj in
      if shared <> [] then begin
        let r = Commute.analyze_product ?budget entries.(i) entries.(j) in
        acc :=
          {
            i;
            j;
            shared;
            cross_races = r.Commute.cross_races;
            product_complete = r.Commute.complete;
            deadline_coupled;
          }
          :: !acc
      end
      else if deadline_coupled then
        acc :=
          { i; j; shared = []; cross_races = []; product_complete = true;
            deadline_coupled }
          :: !acc
    done
  done;
  List.rev !acc

(* ---- the plan ---------------------------------------------------------- *)

type plan = {
  entries : (string * Pattern.t) array;
  costs : cost array;
  edges : edge list;
  internal_races : (int * Commute.race) list;
  assignment : int array;
  shards : int list array;
  shard_costs : int array;
  balance : float;
  certified : bool;
}

(* Union-find with path compression, for contracting hard edges. *)
let find uf i =
  let rec go i = if uf.(i) = i then i else go uf.(i) in
  let root = go i in
  let rec compress i =
    if uf.(i) <> root then begin
      let next = uf.(i) in
      uf.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union uf i j =
  let ri = find uf i and rj = find uf j in
  if ri <> rj then uf.(max ri rj) <- min ri rj

let analyze ?budget ?profile ?(measured = []) ~shards:n_shards entries =
  if n_shards < 1 then invalid_arg "Shard.analyze: shards must be >= 1";
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let eng = Flat.compile (Array.to_list entries) in
  let costs = Array.mapi (cost_of ?budget ~eng ~profile ~measured) entries in
  let edges = edges_of ?budget entries in
  let internal_races =
    List.concat
      (List.init n (fun i ->
           let _, p = entries.(i) in
           let c = Commute.analyze ?budget p in
           List.map (fun r -> (i, r)) c.Commute.races))
  in
  (* Contract hard edges: racy (or undecided) pairs must share a
     shard, whatever it costs the balance. *)
  let uf = Array.init n (fun i -> i) in
  List.iter (fun e -> if hard e then union uf e.i e.j) edges;
  let cluster_members = Hashtbl.create 8 in
  for i = n - 1 downto 0 do
    let r = find uf i in
    Hashtbl.replace cluster_members r
      (i :: Option.value (Hashtbl.find_opt cluster_members r) ~default:[])
  done;
  let clusters =
    Hashtbl.fold
      (fun _ members acc ->
        let cost =
          List.fold_left (fun a i -> a + costs.(i).total) 0 members
        in
        (members, cost) :: acc)
      cluster_members []
    (* heaviest first (LPT); ties broken by lowest member index so the
       plan is deterministic whatever the hash order *)
    |> List.sort (fun (ma, ca) (mb, cb) ->
           if ca <> cb then compare cb ca else compare ma mb)
  in
  let assignment = Array.make n 0 in
  let shard_costs = Array.make n_shards 0 in
  let shard_members = Array.make n_shards [] in
  (* Affinity: shared names (cheaper event fan-out when co-located)
     plus deadline coupling (one wheel instead of two) between the
     cluster and a shard's current members — the tie-break among
     equally loaded shards. *)
  let affinity members shard =
    List.fold_left
      (fun a e ->
        let touches l r = List.mem l members && List.mem r shard_members.(shard)
        in
        if touches e.i e.j || touches e.j e.i then
          a + List.length e.shared + if e.deadline_coupled then 1 else 0
        else a)
      0 edges
  in
  List.iter
    (fun (members, cost) ->
      let best = ref 0 in
      for s = 1 to n_shards - 1 do
        if
          shard_costs.(s) < shard_costs.(!best)
          || shard_costs.(s) = shard_costs.(!best)
             && affinity members s > affinity members !best
        then best := s
      done;
      let s = !best in
      List.iter (fun i -> assignment.(i) <- s) members;
      shard_members.(s) <- shard_members.(s) @ members;
      shard_costs.(s) <- shard_costs.(s) + cost)
    clusters;
  let shards =
    Array.init n_shards (fun s ->
        List.filter (fun i -> assignment.(i) = s) (List.init n (fun i -> i)))
  in
  let balance =
    let nonempty = List.filter (fun c -> c <> []) (Array.to_list shards) in
    match nonempty with
    | [] -> 1.0
    | _ ->
        let cs =
          List.map
            (fun members ->
              List.fold_left (fun a i -> a + costs.(i).total) 0 members)
            nonempty
        in
        let mx = List.fold_left max 0 cs in
        let mean =
          float_of_int (List.fold_left ( + ) 0 cs)
          /. float_of_int (List.length cs)
        in
        if mean = 0.0 then 1.0 else float_of_int mx /. mean
  in
  let certified =
    List.for_all
      (fun e ->
        assignment.(e.i) = assignment.(e.j)
        || e.shared = []
        || (e.product_complete && hard_races e = []))
      edges
  in
  {
    entries;
    costs;
    edges;
    internal_races;
    assignment;
    shards;
    shard_costs;
    balance;
    certified;
  }

let shard_alphabet plan s =
  List.fold_left
    (fun acc i -> Name.Set.union acc (Pattern.alpha (snd plan.entries.(i))))
    Name.Set.empty plan.shards.(s)

(* ---- reporting --------------------------------------------------------- *)

let twin_witness trace_ab ab trace_ba ba =
  Format.asprintf "%s: %s  /  %s: %s" ab
    (Witness.to_string trace_ab)
    ba
    (Witness.to_string trace_ba)

let pair_verdicts (a, b) =
  Printf.sprintf "%s/%s"
    (if a then "PASS" else "FAIL")
    (if b then "PASS" else "FAIL")

let findings ?(balance_threshold = 1.5) plan =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  List.iter
    (fun e ->
      let la = fst plan.entries.(e.i) and lb = fst plan.entries.(e.j) in
      List.iter
        (fun (r : Commute.product_race) ->
          add
            (Finding.v ~subject:la
               ~witness:
                 (twin_witness r.Commute.trace_ab
                    (pair_verdicts r.Commute.ab_verdicts)
                    r.Commute.trace_ba
                    (pair_verdicts r.Commute.ba_verdicts))
               Finding.Warning "shard-coupled"
               "checkers '%s' and '%s' race on the shared pair '%a'/'%a': \
                the checkers are co-located in shard %d, which must \
                consume both names in trace order"
               la lb Name.pp r.Commute.a Name.pp r.Commute.b
               plan.assignment.(e.i)))
        (hard_races e);
      if (not e.product_complete) && hard_races e = [] then
        add
          (Finding.v ~subject:la Finding.Warning "shard-coupled"
             "interference between '%s' and '%s' is undecided within the \
              state budget: the pair is co-located in shard %d \
              conservatively"
             la lb
             plan.assignment.(e.i)))
    plan.edges;
  List.iter
    (fun (i, (r : Commute.race)) ->
      let label = fst plan.entries.(i) in
      add
        (Finding.v ~subject:label
           ~witness:
             (twin_witness r.Commute.trace_ab
                (if r.Commute.ab_passes then "PASS" else "FAIL")
                r.Commute.trace_ba
                (if r.Commute.ab_passes then "FAIL" else "PASS"))
           Finding.Warning "shard-coupled"
           "checker '%s' races on '%a'/'%a': its alphabet slice is pinned \
            to shard %d, which must preserve their delivery order"
           label Name.pp r.Commute.a Name.pp r.Commute.b plan.assignment.(i)))
    plan.internal_races;
  if plan.balance > balance_threshold then
    add
      (Finding.v Finding.Warning "shard-imbalance"
         "static cost balance %.2f exceeds %.2f (max/mean over non-empty \
          shards): the heaviest shard dominates the plan"
         plan.balance balance_threshold);
  Finding.order (List.rev !fs)

(* ---- artifact ---------------------------------------------------------- *)

let cost_json c =
  Json.Obj
    [
      ("slab_slots", Json.Int c.slab_slots);
      ("reach_states", Json.Int c.reach_states);
      ("profile_steps", Json.Int c.profile_steps);
      ("total", Json.Int c.total);
    ]

let names_json names =
  Json.List (List.map (fun nm -> Json.String (Name.to_string nm)) names)

let to_json plan =
  let shard_json s members =
    Json.Obj
      [
        ("shard", Json.Int s);
        ( "checkers",
          Json.List
            (List.map
               (fun i ->
                 Json.Obj
                   [
                     ("index", Json.Int i);
                     ("label", Json.String (fst plan.entries.(i)));
                     ("cost", cost_json plan.costs.(i));
                   ])
               members) );
        ("alphabet", names_json (Name.Set.elements (shard_alphabet plan s)));
        ("cost", Json.Int plan.shard_costs.(s));
      ]
  in
  let edge_json e =
    Json.Obj
      [
        ("a", Json.String (fst plan.entries.(e.i)));
        ("b", Json.String (fst plan.entries.(e.j)));
        ("shared", names_json e.shared);
        ("races", Json.Int (List.length e.cross_races));
        ("hard_races", Json.Int (List.length (hard_races e)));
        ("complete", Json.Bool e.product_complete);
        ("deadline_coupled", Json.Bool e.deadline_coupled);
        ("hard", Json.Bool (hard e));
        ("co_located", Json.Bool (plan.assignment.(e.i) = plan.assignment.(e.j)));
      ]
  in
  let coupling_json (i, (r : Commute.race)) =
    Json.Obj
      [
        ("entry", Json.String (fst plan.entries.(i)));
        ("a", Json.String (Name.to_string r.Commute.a));
        ("b", Json.String (Name.to_string r.Commute.b));
        ("shard", Json.Int plan.assignment.(i));
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "loseq-shard-plan/1");
      ("checkers", Json.Int (Array.length plan.entries));
      ("shards", Json.List (Array.to_list (Array.mapi shard_json plan.shards)));
      ("edges", Json.List (List.map edge_json plan.edges));
      ("internal_races", Json.List (List.map coupling_json plan.internal_races));
      ("balance", Json.Float plan.balance);
      ("certified", Json.Bool plan.certified);
    ]

let pp ppf plan =
  let n_used =
    Array.fold_left (fun a s -> if s = [] then a else a + 1) 0 plan.shards
  in
  Format.fprintf ppf "shard plan: %d checkers over %d/%d shards — %s, \
                      balance %.2f@,"
    (Array.length plan.entries)
    n_used
    (Array.length plan.shards)
    (if plan.certified then "CERTIFIED independent" else "NOT certified")
    plan.balance;
  Array.iteri
    (fun s members ->
      if members <> [] then begin
        Format.fprintf ppf "  shard %d (cost %d):" s plan.shard_costs.(s);
        List.iter
          (fun i -> Format.fprintf ppf " %s" (fst plan.entries.(i)))
          members;
        Format.fprintf ppf "  {%s}@,"
          (String.concat " "
             (List.map Name.to_string
                (Name.Set.elements (shard_alphabet plan s))))
      end)
    plan.shards;
  let hard_edges = List.filter hard plan.edges in
  if hard_edges <> [] || plan.internal_races <> [] then begin
    Format.fprintf ppf "  coupling:@,";
    List.iter
      (fun e ->
        Format.fprintf ppf "    %s + %s co-located in shard %d (%s)@,"
          (fst plan.entries.(e.i))
          (fst plan.entries.(e.j))
          plan.assignment.(e.i)
          (if e.cross_races <> [] then "cross-checker race"
           else "undecided within budget"))
      hard_edges;
    List.iter
      (fun (i, (r : Commute.race)) ->
        Format.fprintf ppf "    %s: %a/%a order pinned to shard %d@,"
          (fst plan.entries.(i))
          Name.pp r.Commute.a Name.pp r.Commute.b plan.assignment.(i))
      plan.internal_races
  end
