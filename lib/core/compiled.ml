(* One pattern on a one-checker flat engine.  In such an engine the
   suite-wide interning is the sorted alphabet, so a gid is also the
   checker-local id the step takes. *)

type verdict = Flat.verdict =
  | Running
  | Satisfied
  | Violated of { reason : Diag.reason; time : int; index : int }

type t = Flat.t

let compile pattern = Flat.compile [ ("pattern", pattern) ]
let pattern t = Flat.pattern t 0
let alphabet t = Flat.alphabet t 0
let id_of_name = Flat.gid_of_name
let verdict t = Flat.verdict t 0
let active_fragment t = Flat.active_fragment t 0
let next_deadline t = Flat.next_deadline_checker t 0
let reset t = Flat.reset_checker t 0
let rounds_completed t = Flat.rounds_completed t 0

let step_id t ~id ~time =
  Flat.step_local t 0 id ~time;
  verdict t

let step t (e : Trace.event) =
  match Flat.gid_of_name t e.name with
  | Some id -> step_id t ~id ~time:e.time
  | None -> verdict t

let check_time t ~now =
  Flat.check_time_checker t 0 ~now;
  verdict t

let finalize = check_time

let run pattern trace =
  let t = compile pattern in
  List.iter (fun e -> ignore (step t e)) trace;
  finalize t ~now:(Trace.end_time trace)

let accepts ?final_time pattern trace =
  let t = compile pattern in
  List.iter (fun e -> ignore (step t e)) trace;
  let now =
    match final_time with Some n -> n | None -> Trace.end_time trace
  in
  match finalize t ~now with
  | Running | Satisfied -> true
  | Violated _ -> false

(* ---- reachability accessors ------------------------------------------- *)

type static = Flat.static = {
  names : Name.t array;
  owner : int array;
  terminator : bool array;
  category : Context.category array array;
  rec_range : Pattern.range array;
  rec_disjunctive : bool array;
  frag_first : int array;
  frag_count : int array;
  fragments : int;
  repeated : bool;
  timed : bool;
  premise_last : int;
  deadline : int;
}

let static t = Flat.static t 0

type rec_state = Flat.rec_state =
  | Idle
  | Waiting
  | Started
  | Counting of int
  | Done

type snapshot = {
  active : int;
  recs : rec_state array;
  armed : bool;
  q_done : bool;
  rounds : int;
}

let snapshot t =
  let p = Flat.persist_checker t 0 in
  {
    active = p.p_active;
    recs = p.p_recs;
    armed =
      (match pattern t with Pattern.Timed _ -> true | Antecedent _ -> false)
      && p.p_started >= 0;
    q_done = p.p_q_done;
    rounds = p.p_rounds;
  }

(* ---- table patches ----------------------------------------------------- *)

type patch = Flat.patch = {
  set_category : (int * int * Context.category) list;
  set_owner : (int * int) list;
  set_terminator : (int * bool) list;
  set_lo : (int * int) list;
  set_hi : (int * int) list;
  set_deadline : int option;
}

let no_patch =
  {
    set_category = [];
    set_owner = [];
    set_terminator = [];
    set_lo = [];
    set_hi = [];
    set_deadline = None;
  }

let patched = Flat.patched
