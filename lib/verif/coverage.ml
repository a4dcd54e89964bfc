open Loseq_core

type state_kind = Kwaiting | Kwaiting_started | Kcounting | Kdone

let kind_of_state = function
  | Recognizer.Waiting -> Some Kwaiting
  | Recognizer.Waiting_started -> Some Kwaiting_started
  | Recognizer.Counting _ -> Some Kcounting
  | Recognizer.Done_counting _ -> Some Kdone
  | Recognizer.Idle | Recognizer.Failed -> None

type t = {
  alpha : Name.Set.t;
  counts : (Name.t, int) Hashtbl.t;
  mutable counted : Name.t -> int;  (** counts kept outside, by a host *)
  visited : (int * state_kind, unit) Hashtbl.t;
  reachable : int;  (* denominator for state coverage *)
  mutable rounds : int;
  mutable violations : int;
}

let create p =
  let ordering = Pattern.body_ordering p in
  (* Reachable kinds per fragment: only the first fragment is ever
     started bare (hence [waiting]); later fragments start on the event
     that closed their predecessor; single-range fragments have no
     "other range" states. *)
  let reachable =
    List.fold_left
      (fun (acc, index) (f : Pattern.fragment) ->
        let multi = List.length f.ranges > 1 in
        let kinds =
          match (index, multi) with
          | 0, true -> 4 (* waiting, waiting-started, counting, done *)
          | 0, false -> 2 (* waiting, counting *)
          | _, true -> 3 (* waiting-started, counting, done *)
          | _, false -> 1 (* counting *)
        in
        (acc + kinds, index + 1))
      (0, 0) ordering
    |> fst
  in
  {
    alpha = Pattern.alpha p;
    counts = Hashtbl.create 16;
    counted = (fun _ -> 0);
    visited = Hashtbl.create 16;
    reachable;
    rounds = 0;
    violations = 0;
  }

let observe_event t (e : Trace.event) =
  if Name.Set.mem e.name t.alpha then
    let current = Option.value ~default:0 (Hashtbl.find_opt t.counts e.name) in
    Hashtbl.replace t.counts e.name (current + 1)

let observe_states t states =
  List.iteri
    (fun fragment_index frag ->
      List.iter
        (fun state ->
          match kind_of_state state with
          | Some kind -> Hashtbl.replace t.visited (fragment_index, kind) ()
          | None -> ())
        frag)
    states

let count_from t counted = t.counted <- counted
let record_round t = t.rounds <- t.rounds + 1
let record_violation t = t.violations <- t.violations + 1

let name_counts t =
  Name.Set.elements t.alpha
  |> List.map (fun n ->
         let observed = Option.value ~default:0 (Hashtbl.find_opt t.counts n) in
         (n, observed + t.counted n))

let names_covered t =
  let total = Name.Set.cardinal t.alpha in
  if total = 0 then 1.
  else
    let seen =
      List.length (List.filter (fun (_, c) -> c > 0) (name_counts t))
    in
    float_of_int seen /. float_of_int total

let states_covered t =
  if t.reachable = 0 then 1.
  else float_of_int (Hashtbl.length t.visited) /. float_of_int t.reachable

let rounds t = t.rounds
let violations t = t.violations

let kind_name = function
  | Kwaiting -> "waiting"
  | Kwaiting_started -> "waiting-started"
  | Kcounting -> "counting"
  | Kdone -> "done"

let visited t =
  Hashtbl.fold
    (fun (fragment, kind) () acc -> (fragment, kind_name kind) :: acc)
    t.visited []
  |> List.sort compare

let reachable t = t.reachable

let pp ppf t =
  Format.fprintf ppf
    "@[<v>name coverage: %.0f%%@,state coverage: %.0f%%@,rounds: %d, \
     violations: %d@,events:"
    (100. *. names_covered t)
    (100. *. states_covered t)
    t.rounds t.violations;
  List.iter
    (fun (n, c) -> Format.fprintf ppf "@,  %a: %d" Name.pp n c)
    (name_counts t);
  Format.fprintf ppf "@]"
