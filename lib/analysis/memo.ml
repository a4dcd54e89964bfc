open Loseq_core

let default_budget = 200_000

(* Patterns are pure data (names, ints, lists), so the polymorphic
   hash/equality of Hashtbl are sound on them; a structural miss on
   two different builds of an equal pattern only costs a duplicate
   exploration, never a wrong answer. *)
type key = { pattern : Pattern.t; exact : bool; budget : int }

let table : (key, Machine.t * Machine.state Reach.exploration) Hashtbl.t =
  Hashtbl.create 64

let misses = ref 0

let explore ?budget ~exact c =
  let budget = Option.value budget ~default:default_budget in
  let pattern = Canon.pattern c in
  let key = { pattern; exact; budget } in
  match Hashtbl.find_opt table key with
  | Some hit -> hit
  | None ->
      let m = Machine.make ~exact pattern in
      let ex = Reach.explore ~budget (Machine.system m) in
      incr misses;
      Hashtbl.replace table key (m, ex);
      (m, ex)

type 'a results = (Pattern.t * int, 'a) Hashtbl.t

let clear_results = ref []

let results () =
  let t = Hashtbl.create 64 in
  clear_results := (fun () -> Hashtbl.reset t) :: !clear_results;
  t

let result results ~budget compute p =
  let c = Canon.make p in
  let key = (Canon.pattern c, budget) in
  match Hashtbl.find_opt results key with
  | Some r -> (c, r)
  | None ->
      let r = compute c in
      Hashtbl.replace results key r;
      (c, r)

let explorations_performed () = !misses

let reset () =
  Hashtbl.reset table;
  List.iter (fun clear -> clear ()) !clear_results;
  misses := 0
