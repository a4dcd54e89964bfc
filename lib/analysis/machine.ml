open Loseq_core

type rclass =
  | Idle
  | Waiting
  | Started
  | Below of int
  | Ready
  | Full
  | Counting of int
  | Done

type config = {
  active : int;
  recs : rclass array;
  armed : bool;
  q_done : bool;
}

type status = Running of config | Satisfied | Violated of Diag.reason
type state = { status : status; matched : bool }

type t = {
  pattern : Pattern.t;
  s : Compiled.static;
  lo : int array;
  hi : int array;
  exact : bool;
}

let make ?(exact = false) pattern =
  let c = Compiled.compile pattern in
  let s = Compiled.static c in
  {
    pattern;
    s;
    lo = Array.map (fun (r : Pattern.range) -> r.lo) s.rec_range;
    hi = Array.map (fun (r : Pattern.range) -> r.hi) s.rec_range;
    exact;
  }

let of_compiled ?(exact = false) c =
  let s = Compiled.static c in
  {
    pattern = Compiled.pattern c;
    s;
    lo = Array.map (fun (r : Pattern.range) -> r.lo) s.rec_range;
    hi = Array.map (fun (r : Pattern.range) -> r.hi) s.rec_range;
    exact;
  }

let pattern t = t.pattern
let timed t = t.s.timed
let deadline t = t.s.deadline
let n_ids t = Array.length t.s.names
let name t i = t.s.names.(i)

let init t =
  let recs = Array.make (Array.length t.s.rec_range) Idle in
  for r = t.s.frag_first.(0) to t.s.frag_first.(0) + t.s.frag_count.(0) - 1 do
    recs.(r) <- Waiting
  done;
  {
    status = Running { active = 0; recs; armed = false; q_done = false };
    matched = false;
  }

(* Class of a concrete counter value.  In exact mode the value is kept
   as is (products need the correlation between both machines'
   counters).  Abstracting, values below [lo] stay exact so abstract
   path lengths equal concrete event counts on the way to a minimal
   completion; values in [[lo, hi-1]] collapse to [Ready] (only the
   predicates [>= lo] and [>= hi] matter there). *)
let class_of_count t r c =
  if t.exact then Counting c
  else if c < t.lo.(r) then Below c
  else if c < t.hi.(r) then Ready
  else Full

(* First own event: counter = 1. *)
let start_class t r = class_of_count t r 1

type outcome = Quiet | Ok_acc | Nok | Err of Diag.reason

(* Abstract mirror of [Flat.rec_step]: successors of one recognizer
   on one category.  Deterministic except [Self] from a counting
   interval wide enough to both stay and cross. *)
let rec_succ t r cls (cat : Context.category) =
  let range = t.s.rec_range.(r) in
  let disj = t.s.rec_disjunctive.(r) in
  match (cls, cat) with
  | Idle, _ -> [ (Idle, Quiet) ] (* dropped out: every event is ignored *)
  | (Waiting | Started), Context.Self -> [ (start_class t r, Quiet) ]
  | (Waiting | Started), Context.Current -> [ (Started, Quiet) ]
  | (Waiting | Started), Context.Accept ->
      if disj then [ (Idle, Nok) ] else [ (cls, Err (Diag.Missing range)) ]
  | Below c, Context.Self -> [ (class_of_count t r (c + 1), Quiet) ]
  | Below _, (Context.Current | Context.Accept) ->
      [ (cls, Err (Diag.Underflow range)) ]
  | Counting c, Context.Self ->
      if c >= t.hi.(r) then [ (cls, Err (Diag.Overflow range)) ]
      else [ (Counting (c + 1), Quiet) ]
  | Counting c, Context.Current ->
      if c >= t.lo.(r) then [ (Done, Quiet) ]
      else [ (cls, Err (Diag.Underflow range)) ]
  | Counting c, Context.Accept ->
      if c >= t.lo.(r) then [ (Idle, Ok_acc) ]
      else [ (cls, Err (Diag.Underflow range)) ]
  | Ready, Context.Self ->
      if t.hi.(r) >= t.lo.(r) + 2 then [ (Ready, Quiet); (Full, Quiet) ]
      else [ (Full, Quiet) ]
  | Full, Context.Self -> [ (cls, Err (Diag.Overflow range)) ]
  | (Ready | Full), Context.Current -> [ (Done, Quiet) ]
  | (Ready | Full), Context.Accept -> [ (Idle, Ok_acc) ]
  | Done, Context.Self -> [ (cls, Err (Diag.Reentered range)) ]
  | Done, Context.Current -> [ (Done, Quiet) ]
  | Done, Context.Accept -> [ (Idle, Ok_acc) ]
  | _, Context.Before -> [ (cls, Err Diag.Before_name) ]
  | _, Context.After -> [ (cls, Err Diag.After_name) ]
  | _, Context.Outside -> [ (cls, Quiet) ]

(* Abstract mirror of [Flat.min_complete]. *)
let frag_min_complete t recs f =
  let first = t.s.frag_first.(f) in
  let oks = ref 0 in
  let viable = ref true in
  for r = first to first + t.s.frag_count.(f) - 1 do
    match recs.(r) with
    | Below _ -> viable := false
    | Counting c -> if c >= t.lo.(r) then incr oks else viable := false
    | Ready | Full | Done -> incr oks
    | Idle | Waiting | Started ->
        if not t.s.rec_disjunctive.(r) then viable := false
  done;
  !viable && !oks > 0

(* Abstract mirror of [Flat.try_complete]: deliver Accept to the
   active fragment.  Fully deterministic. *)
exception Failed of Diag.reason

let try_complete t cfg =
  let first = t.s.frag_first.(cfg.active) in
  let recs = Array.copy cfg.recs in
  let oks = ref 0 in
  try
    for r = first to first + t.s.frag_count.(cfg.active) - 1 do
      match rec_succ t r recs.(r) Context.Accept with
      | [ (c', o) ] -> (
          recs.(r) <- c';
          match o with
          | Ok_acc -> incr oks
          | Nok | Quiet -> ()
          | Err reason -> raise (Failed reason))
      | _ -> assert false (* Accept never branches *)
    done;
    if !oks = 0 then Error Diag.Empty_fragment else Ok recs
  with Failed reason -> Error reason

(* Abstract mirror of [Flat.start_fragment_with] (in place). *)
let start_fragment t recs f id =
  for r = t.s.frag_first.(f) to t.s.frag_first.(f) + t.s.frag_count.(f) - 1 do
    recs.(r) <-
      (if t.s.category.(r).(id) = Context.Self then start_class t r else Started)
  done

(* Abstract mirror of [Flat.refresh_timed]; also reports whether a
   timed round just completed (q_done flipping). *)
let refresh t cfg =
  if not t.s.timed then (cfg, false)
  else if cfg.active = t.s.premise_last && frag_min_complete t cfg.recs cfg.active
  then ({ cfg with armed = true }, false)
  else if
    cfg.active = t.s.fragments - 1
    && (not cfg.q_done)
    && frag_min_complete t cfg.recs cfg.active
  then ({ cfg with q_done = true }, true)
  else (cfg, false)

(* Step the active fragment: every recognizer sees the event; the one
   whose own name it is may branch (at most one per fragment, names
   being globally unique). *)
let step_active t state cfg id =
  let first = t.s.frag_first.(cfg.active) in
  let count = t.s.frag_count.(cfg.active) in
  let alts = ref [ Array.copy cfg.recs ] in
  try
    for k = 0 to count - 1 do
      let r = first + k in
      let cat = t.s.category.(r).(id) in
      (* every alternative agrees on recognizers not yet processed *)
      let cls = (List.hd !alts).(r) in
      match rec_succ t r cls cat with
      | [ (c', o) ] -> (
          match o with
          | Err reason -> raise (Failed reason)
          | Quiet | Ok_acc | Nok -> List.iter (fun a -> a.(r) <- c') !alts)
      | succs ->
          alts :=
            List.concat_map
              (fun a ->
                List.map
                  (fun (c', _) ->
                    let a' = Array.copy a in
                    a'.(r) <- c';
                    a')
                  succs)
              !alts
    done;
    List.map
      (fun recs ->
        let cfg', m = refresh t { cfg with recs } in
        { status = Running cfg'; matched = state.matched || m })
      !alts
  with Failed reason -> [ { state with status = Violated reason } ]

(* Abstract mirror of [Flat.step_trusted] — same branch order. *)
let step t state id =
  match state.status with
  | Satisfied | Violated _ -> [ state ]
  | Running cfg ->
      let viol reason = [ { state with status = Violated reason } ] in
      let f = t.s.owner.(id) in
      let last = t.s.fragments - 1 in
      if f = cfg.active then step_active t state cfg id
      else if cfg.active = last && t.s.terminator.(id) then (
        match try_complete t cfg with
        | Error reason -> viol reason
        | Ok recs ->
            if not t.s.timed then
              if t.s.repeated then begin
                for
                  r = t.s.frag_first.(0)
                  to t.s.frag_first.(0) + t.s.frag_count.(0) - 1
                do
                  recs.(r) <- Waiting
                done;
                [
                  {
                    status = Running { cfg with active = 0; recs };
                    matched = true;
                  };
                ]
              end
              else [ { status = Satisfied; matched = true } ]
            else begin
              (* timed: the terminator opens the next round *)
              start_fragment t recs 0 id;
              let cfg' = { active = 0; recs; armed = false; q_done = false } in
              let cfg', m = refresh t cfg' in
              [ { status = Running cfg'; matched = state.matched || m } ]
            end)
      else if f = cfg.active + 1 then (
        match try_complete t cfg with
        | Error reason -> viol reason
        | Ok recs ->
            start_fragment t recs f id;
            let cfg', m = refresh t { cfg with active = f; recs } in
            [ { status = Running cfg'; matched = state.matched || m } ])
      else if f >= 0 && f <= cfg.active then viol Diag.Before_name
      else if f >= 0 then viol Diag.After_name
      else viol Diag.Trigger_early

(* Hash and equality by hand: no allocation, and every [recs] entry
   counts, counters included (the polymorphic hash samples a bounded
   prefix of the structure, so exact-counter states that differ deep in
   [recs] would collide). *)
let mix h x = (h lxor x) * 0x100000001b3

let rclass_code = function
  | Idle -> 0
  | Waiting -> 1
  | Started -> 2
  | Ready -> 3
  | Full -> 4
  | Done -> 5
  | Below c -> (c lsl 3) lor 6
  | Counting c -> (c lsl 3) lor 7

let hash state =
  let h = if state.matched then 1 else 2 in
  let h =
    match state.status with
    | Satisfied -> mix h 3
    | Violated reason -> mix (mix h 4) (Hashtbl.hash reason)
    | Running cfg ->
        let h = ref (mix (mix h 5) cfg.active) in
        h :=
          mix !h
            ((if cfg.armed then 1 else 0) lor if cfg.q_done then 2 else 0);
        for r = 0 to Array.length cfg.recs - 1 do
          h := mix !h (rclass_code cfg.recs.(r))
        done;
        !h
  in
  (h lxor (h lsr 31)) land max_int

let equal_rclass a b =
  match (a, b) with
  | Below x, Below y | Counting x, Counting y -> Int.equal x y
  | Below _, _ | Counting _, _ | _, Below _ | _, Counting _ -> false
  | _ -> a == b

let equal_recs a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec loop r = r >= n || (equal_rclass a.(r) b.(r) && loop (r + 1)) in
  loop 0

let equal a b =
  Bool.equal a.matched b.matched
  &&
  match (a.status, b.status) with
  | Running x, Running y ->
      Int.equal x.active y.active
      && Bool.equal x.armed y.armed
      && Bool.equal x.q_done y.q_done
      && equal_recs x.recs y.recs
  | Satisfied, Satisfied -> true
  | Violated x, Violated y -> Diag.equal_reason x y
  | (Running _ | Satisfied | Violated _), _ -> false

let is_violated state =
  match state.status with Violated _ -> true | _ -> false

let is_final state =
  match state.status with Violated _ | Satisfied -> true | Running _ -> false

let system t =
  {
    Reach.init = init t;
    n_ids = n_ids t;
    step = step t;
    final = is_final;
    hash;
    equal;
  }

let can_time_violate t state =
  t.s.timed
  &&
  match state.status with
  | Running cfg -> cfg.armed && not cfg.q_done
  | _ -> false

let completable t state =
  match state.status with
  | Running cfg ->
      cfg.active = t.s.fragments - 1 && frag_min_complete t cfg.recs cfg.active
  | _ -> false

let project t c =
  let snap = Compiled.snapshot c in
  let status =
    match Compiled.verdict c with
    | Compiled.Satisfied -> Satisfied
    | Compiled.Violated v -> Violated v.reason
    | Compiled.Running ->
        Running
          {
            active = snap.active;
            recs =
              Array.mapi
                (fun r (s : Compiled.rec_state) ->
                  match s with
                  | Compiled.Idle -> Idle
                  | Compiled.Waiting -> Waiting
                  | Compiled.Started -> Started
                  | Compiled.Counting n -> class_of_count t r n
                  | Compiled.Done -> Done)
                snap.recs;
            armed = snap.armed;
            q_done = snap.q_done;
          }
  in
  { status; matched = snap.rounds > 0 }
