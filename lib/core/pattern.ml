type range = { name : Name.t; lo : int; hi : int }
type connective = All | Any
type fragment = { ranges : range list; connective : connective }
type ordering = fragment list
type antecedent = { body : ordering; trigger : Name.t; repeated : bool }
type timed = { premise : ordering; conclusion : ordering; deadline : int }
type t = Antecedent of antecedent | Timed of timed

let range ?(lo = 1) ?(hi = 1) name =
  if lo < 1 then invalid_arg "Pattern.range: lower bound must be >= 1";
  if lo > hi then invalid_arg "Pattern.range: lower bound exceeds upper bound";
  { name; lo; hi }

let exactly k name = range ~lo:k ~hi:k name

let fragment ?(connective = All) ranges =
  if ranges = [] then invalid_arg "Pattern.fragment: empty fragment";
  { ranges; connective }

let single name = fragment [ range name ]

let antecedent ?(repeated = false) body ~trigger =
  if body = [] then invalid_arg "Pattern.antecedent: empty ordering";
  Antecedent { body; trigger; repeated }

let timed premise conclusion ~deadline =
  if premise = [] then invalid_arg "Pattern.timed: empty premise";
  if conclusion = [] then invalid_arg "Pattern.timed: empty conclusion";
  if deadline < 0 then invalid_arg "Pattern.timed: negative deadline";
  Timed { premise; conclusion; deadline }

let map_ranges ?(trigger = Fun.id) f p =
  let ordering frags =
    List.map (fun fr -> { fr with ranges = List.map f fr.ranges }) frags
  in
  match p with
  | Antecedent a ->
      let body = ordering a.body in
      Antecedent { a with body; trigger = trigger a.trigger }
  | Timed g ->
      let premise = ordering g.premise in
      let conclusion = ordering g.conclusion in
      Timed { g with premise; conclusion }

let alpha_range r = Name.Set.singleton r.name

let alpha_fragment f =
  List.fold_left
    (fun acc r -> Name.Set.add r.name acc)
    Name.Set.empty f.ranges

let alpha_ordering frags =
  List.fold_left
    (fun acc f -> Name.Set.union acc (alpha_fragment f))
    Name.Set.empty frags

let alpha = function
  | Antecedent a -> Name.Set.add a.trigger (alpha_ordering a.body)
  | Timed g ->
      Name.Set.union (alpha_ordering g.premise) (alpha_ordering g.conclusion)

let body_ordering = function
  | Antecedent a -> a.body
  | Timed g -> g.premise @ g.conclusion

let premise_length = function
  | Antecedent a -> List.length a.body
  | Timed g -> List.length g.premise

let fragment_count p = List.length (body_ordering p)

let range_count p =
  List.fold_left (fun acc f -> acc + List.length f.ranges) 0 (body_ordering p)

let name_count p =
  List.fold_left
    (fun acc f -> acc + Name.Set.cardinal (alpha_fragment f))
    0 (body_ordering p)

let max_fragment_width p =
  List.fold_left
    (fun acc f -> max acc (Name.Set.cardinal (alpha_fragment f)))
    0 (body_ordering p)

let max_hi p =
  List.fold_left
    (fun acc f -> List.fold_left (fun acc r -> max acc r.hi) acc f.ranges)
    0 (body_ordering p)

let equal_range r1 r2 =
  Name.equal r1.name r2.name && r1.lo = r2.lo && r1.hi = r2.hi

let equal_fragment f1 f2 =
  f1.connective = f2.connective
  && List.length f1.ranges = List.length f2.ranges
  && List.for_all2 equal_range f1.ranges f2.ranges

let equal_ordering o1 o2 =
  List.length o1 = List.length o2 && List.for_all2 equal_fragment o1 o2

let equal p1 p2 =
  match p1, p2 with
  | Antecedent a1, Antecedent a2 ->
      equal_ordering a1.body a2.body
      && Name.equal a1.trigger a2.trigger
      && a1.repeated = a2.repeated
  | Timed g1, Timed g2 ->
      equal_ordering g1.premise g2.premise
      && equal_ordering g1.conclusion g2.conclusion
      && g1.deadline = g2.deadline
  | Antecedent _, Timed _ | Timed _, Antecedent _ -> false

let pp_range ppf r =
  if r.lo = 1 && r.hi = 1 then Name.pp ppf r.name
  else Format.fprintf ppf "%a[%d,%d]" Name.pp r.name r.lo r.hi

let pp_fragment ppf f =
  match f.ranges with
  | [ r ] when f.connective = All -> pp_range ppf r
  | _ ->
      let sep = match f.connective with All -> ", " | Any -> " | " in
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep)
           pp_range)
        f.ranges

let pp_ordering ppf frags =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " < ")
    pp_fragment ppf frags

let pp ppf = function
  | Antecedent a ->
      Format.fprintf ppf "%a %s %a" pp_ordering a.body
        (if a.repeated then "<<!" else "<<")
        Name.pp a.trigger
  | Timed g ->
      Format.fprintf ppf "%a => %a within %d" pp_ordering g.premise
        pp_ordering g.conclusion g.deadline

let to_string p = Format.asprintf "%a" pp p
