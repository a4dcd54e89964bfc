open Loseq_core

type link = { time : int; name : Name.t }

(* Per-entry bounded ring of recent alphabet events.  Like the
   flight-recorder ring, the write index is [total land mask] so the
   oldest slot is overwritten and nothing is shifted.  A slot holds a
   time and the name's index in the ring's own alphabet array: a push
   writes two ints and no pointer. *)
type ring = {
  label : string;
  pattern : Pattern.t;
  alpha : Name.t array;  (* the entry's alphabet, sorted *)
  times : int array;
  slots : int array;  (* index into [alpha] *)
  mask : int;
  mutable total : int;  (* pushes that landed; the write index *)
  mutable skipped : int;  (* pushes after the freeze, counted only *)
  mutable freeze_time : int option;
      (* first-violation time: later events no longer enter the ring *)
  mutable violation : Diag.violation option;
}

(* Everything one name feeds: the rings listening to it, and the name's
   index in each ring's alphabet. *)
type route = { ring_ids : int array; ring_slots : int array }

type t = {
  rings : ring array;
  by_label : (string, int) Hashtbl.t;
  routes : route Name.Map.t;
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let snapshot r =
  let len = min r.total (Array.length r.times) in
  let rec collect k acc =
    if k < r.total - len then acc
    else
      let i = k land r.mask in
      collect (k - 1)
        ({ time = r.times.(i); name = r.alpha.(r.slots.(i)) } :: acc)
  in
  (* arrival order; sort makes the chain chronological even when fed
     out of order (the speculative engine's arrival stream) *)
  List.stable_sort
    (fun a b -> compare a.time b.time)
    (collect (r.total - 1) [])

(* The violation hook fires synchronously {e inside} the offending
   event's delivery; when the recorder's tap subscription runs after
   the checker's (subscription order), the deciding event reaches the
   ring only after {!note_violation}.  So freezing is by time, not by
   snapshot: pushes at or before the violation instant still land, and
   the chain is cut at read time. *)
let push r ~time slot =
  match r.freeze_time with
  | Some ft when time > ft -> r.skipped <- r.skipped + 1
  | _ ->
      let i = r.total land r.mask in
      r.times.(i) <- time;
      r.slots.(i) <- slot;
      r.total <- r.total + 1

let record t route ~time =
  for k = 0 to Array.length route.ring_ids - 1 do
    push t.rings.(route.ring_ids.(k)) ~time route.ring_slots.(k)
  done

let make_rings depth suite =
  let depth = pow2 (max depth 1) 1 in
  let rings =
    Array.of_list
      (List.map
         (fun (e : Suite.entry) ->
           {
             label = e.label;
             pattern = e.pattern;
             alpha = Array.of_list (Name.Set.elements (Pattern.alpha e.pattern));
             times = Array.make depth 0;
             slots = Array.make depth 0;
             mask = depth - 1;
             total = 0;
             skipped = 0;
             freeze_time = None;
             violation = None;
           })
         suite)
  in
  let by_label = Hashtbl.create (Array.length rings) in
  Array.iteri (fun i r -> Hashtbl.replace by_label r.label i) rings;
  let listeners = ref Name.Map.empty in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun slot n ->
          listeners :=
            Name.Map.update n
              (fun l -> Some ((i, slot) :: Option.value ~default:[] l))
              !listeners)
        r.alpha)
    rings;
  let routes =
    Name.Map.map
      (fun l ->
        let l = Array.of_list (List.rev l) in
        { ring_ids = Array.map fst l; ring_slots = Array.map snd l })
      !listeners
  in
  { rings; by_label; routes }

let create_detached ?(depth = 64) suite = make_rings depth suite

let create ?(depth = 64) tap suite =
  let t = make_rings depth suite in
  Name.Map.iter
    (fun n route ->
      Tap.subscribe_name tap n (fun time -> record t route ~time))
    t.routes;
  t

let no_route = { ring_ids = [||]; ring_slots = [||] }

let route t name =
  Option.value (Name.Map.find_opt name t.routes) ~default:no_route

let seen t =
  Array.to_list (Array.map (fun r -> (r.label, r.total + r.skipped)) t.rings)

let note_violation t ~label (v : Diag.violation) =
  match Hashtbl.find_opt t.by_label label with
  | None -> ()
  | Some i ->
      let r = t.rings.(i) in
      if r.freeze_time = None then begin
        r.freeze_time <- Some v.time;
        r.violation <- Some v
      end

let clear_violation t ~label =
  match Hashtbl.find_opt t.by_label label with
  | None -> ()
  | Some i ->
      let r = t.rings.(i) in
      r.freeze_time <- None;
      r.violation <- None

let violation_of t label =
  match Hashtbl.find_opt t.by_label label with
  | None -> None
  | Some i -> t.rings.(i).violation

let captured t label =
  match Hashtbl.find_opt t.by_label label with
  | None -> []
  | Some i -> snapshot t.rings.(i)

(* ---- minimization ------------------------------------------------------- *)

let to_trace chain =
  List.map
    (fun l -> { Trace.name = l.name; time = l.time })
    (List.stable_sort (fun a b -> compare a.time b.time) chain)

let replay ?backend ~final_time ~label pattern chain =
  let suite = [ { Suite.label; pattern; line = 0 } ] in
  match Suite.check_trace ?backend ~final_time suite (to_trace chain) with
  | [ (_, passed) ] -> passed
  | _ -> true

(* The same failure: the same fragment and reason.  Deadline reasons
   match by constructor, since their times move with the chain's
   start. *)
let same_violation (a : Diag.violation) (b : Diag.violation) =
  a.fragment = b.fragment
  &&
  match (a.reason, b.reason) with
  | Diag.Deadline_miss _, Diag.Deadline_miss _
  | Diag.Late_conclusion _, Diag.Late_conclusion _ ->
      true
  | ra, rb -> Diag.equal_reason ra rb

let minimize ?(backend = Backend.flat_views) ?violation ~final_time ~label
    pattern chain =
  (* One monitor for the whole minimization, reset before each
     candidate. *)
  let b = (backend [ (label, pattern) ]).(0) in
  let fails c =
    b.Backend.reset ();
    List.iter (fun e -> ignore (b.Backend.step e)) (to_trace c);
    match b.Backend.finalize ~now:final_time with
    | Backend.Violated v -> (
        match violation with None -> true | Some w -> same_violation v w)
    | Backend.Running | Backend.Satisfied -> false
  in
  (* Greedy delta-debugging, one event at a time.  Walking from the
     front drops prefix noise (events of completed rounds) first.  A
     drop can make an event kept earlier droppable, so passes repeat
     until one drops nothing: then the chain is 1-minimal. *)
  let rec pass chain =
    let keep = ref [] and dropped = ref false in
    let rec go = function
      | [] -> ()
      | e :: rest ->
          if fails (List.rev_append !keep rest) then dropped := true
          else keep := e :: !keep;
          go rest
    in
    go chain;
    if !dropped then pass (List.rev !keep) else chain
  in
  if fails chain then pass chain else chain

(* ---- rendering ---------------------------------------------------------- *)

let chain_json ?violation chain =
  let chain_field =
    ( "chain",
      Json.List
        (List.map
           (fun l ->
             Json.Obj
               [
                 ("time", Json.Int l.time);
                 ("name", Json.String (Name.to_string l.name));
               ])
           chain) )
  in
  match violation with
  | None -> Json.Obj [ chain_field ]
  | Some (v : Diag.violation) ->
      let deadline =
        match v.reason with
        | Diag.Deadline_miss { started; deadline; now } ->
            [
              ( "deadline",
                Json.Obj
                  [
                    ("started", Json.Int started);
                    ("deadline", Json.Int deadline);
                    ("now", Json.Int now);
                  ] );
            ]
        | _ -> []
      in
      Json.Obj
        ([
           chain_field;
           ("violation_time", Json.Int v.time);
           ("reason", Json.String (Diag.violation_to_string v));
         ]
        @ deadline)

let chain_of_json json =
  let json =
    match Json.member "provenance" json with Some p -> p | None -> json
  in
  match Json.member "chain" json with
  | None -> Error "no \"chain\" array"
  | Some c -> (
      match Json.to_list_opt c with
      | None -> Error "\"chain\" is not an array"
      | Some items ->
          let link item =
            match
              ( Option.bind (Json.member "time" item) (function
                  | Json.Int i -> Some i
                  | _ -> None),
                Option.bind (Json.member "name" item) Json.to_string_opt )
            with
            | Some time, Some name -> Ok { time; name = Name.v name }
            | _ -> Error "chain element needs \"time\" and \"name\""
          in
          List.fold_left
            (fun acc item ->
              match (acc, link item) with
              | Error _, _ -> acc
              | _, (Error _ as e) -> e
              | Ok links, Ok l -> Ok (l :: links))
            (Ok []) items
          |> Result.map List.rev)
