open Loseq_core

let product ?budget ma mb =
  let names_of m =
    let s = ref Name.Set.empty in
    for i = 0 to Machine.n_ids m - 1 do
      s := Name.Set.add (Machine.name m i) !s
    done;
    !s
  in
  let union =
    Array.of_list
      (Name.Set.elements (Name.Set.union (names_of ma) (names_of mb)))
  in
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
  let step (sa, sb) uid =
    let sas = if ida.(uid) >= 0 then Machine.step ma sa ida.(uid) else [ sa ] in
    let sbs = if idb.(uid) >= 0 then Machine.step mb sb idb.(uid) else [ sb ] in
    List.concat_map (fun a -> List.map (fun b -> (a, b)) sbs) sas
  in
  let sys =
    {
      Reach.init = (Machine.init ma, Machine.init mb);
      n_ids = Array.length union;
      step;
      final = (fun (a, b) -> Machine.is_final a && Machine.is_final b);
      hash = Reach.pair_hash Machine.hash Machine.hash;
      equal = Reach.pair_equal Machine.equal Machine.equal;
    }
  in
  (Reach.explore ?budget sys, union)

let untimed p = match p with Pattern.Antecedent _ -> true | Pattern.Timed _ -> false

(* Everything the pair analysis needs from one product exploration. *)
type pair_facts = {
  decided : bool;  (** both untimed and exploration complete *)
  a_viol_not_b : bool;  (** some trace violates [a] but not [b] *)
  b_viol_not_a : bool;
  a_matchable : bool;  (** [a] matched with [a] unviolated *)
  b_matchable : bool;
  both_witness : int option;  (** node: both matched, neither violated *)
}

let facts ?budget a b =
  if not (untimed a && untimed b) then None
  else begin
    (* exact counters: the product must preserve the correlation
       between the two machines' counters (see [Machine.make]) *)
    let ma = Machine.make ~exact:true a and mb = Machine.make ~exact:true b in
    let ex, union = product ?budget ma mb in
    let find p = Reach.find ex p <> None in
    let viol = Machine.is_violated in
    Some
      ( {
          decided = ex.Reach.complete;
          a_viol_not_b = find (fun (sa, sb) -> viol sa && not (viol sb));
          b_viol_not_a = find (fun (sa, sb) -> viol sb && not (viol sa));
          a_matchable =
            find (fun ((sa : Machine.state), _) -> sa.matched && not (viol sa));
          b_matchable =
            find (fun (_, (sb : Machine.state)) -> sb.matched && not (viol sb));
          both_witness =
            Reach.find ex
              (fun ((sa : Machine.state), (sb : Machine.state)) ->
                sa.matched && sb.matched && (not (viol sa)) && not (viol sb));
        },
        (ma, mb, ex, union) )
  end

let subsumes ?budget a b =
  match facts ?budget a b with
  | Some (f, _) when f.decided -> Some (not f.b_viol_not_a)
  | _ -> None

(* Concretize a product path: interleave the union-name events; each
   machine's projection is checked by replay on its own monitor. *)
let product_witness union ex node =
  let steps = Reach.path ex node in
  List.mapi (fun i (uid, _) -> { Trace.name = union.(uid); time = i }) steps

let compatible_witness ?budget a b =
  match facts ?budget a b with
  | Some (f, (_, _, ex, union)) when f.decided ->
      let w = Option.map (product_witness union ex) f.both_witness in
      Some (w, f.a_matchable && f.b_matchable)
  | _ -> None

let findings ?budget entries =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let la, a = arr.(i) and lb, b = arr.(j) in
      match facts ?budget a b with
      | None -> ()
      | Some (f, _) when f.decided ->
          let a_red = (not f.a_viol_not_b) && f.a_matchable in
          let b_red = (not f.b_viol_not_a) && f.b_matchable in
          (* A checker that cannot even match gets its own per-pattern
             findings; keep the cross-pattern noise down. *)
          (if a_red && b_red then
             add
               (Finding.v ~subject:lb Finding.Warning "equivalent-checkers"
                  "'%s' and '%s' reject exactly the same traces: one of \
                   them is redundant"
                  la lb)
           else if b_red then
             add
               (Finding.v ~subject:lb Finding.Warning "subsumed-checker"
                  "every trace that violates '%s' already violates '%s': \
                   '%s' can be dropped"
                  lb la lb)
           else if a_red then
             add
               (Finding.v ~subject:la Finding.Warning "subsumed-checker"
                  "every trace that violates '%s' already violates '%s': \
                   '%s' can be dropped"
                  la lb la));
          if f.a_matchable && f.b_matchable && f.both_witness = None then
            add
              (Finding.v ~subject:(la ^ ", " ^ lb) Finding.Error
                 "conflicting-pair"
                 "'%s' and '%s' are each matchable alone, but no trace \
                  can complete a round of both without violating one: \
                  together they reject every run they fully exercise"
                 la lb)
      | Some _ -> ()
    done
  done;
  Finding.order (List.rev !fs)
