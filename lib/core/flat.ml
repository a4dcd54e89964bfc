(* The flat-table engine: the one implementation of the paper's Fig. 5
   recognizer automaton.  One Bigarray int slab per checker carries
   every mutable word; all static tables are plain read-only int arrays
   built at compile time.  [Compiled] is this engine hosting one
   checker.  Once the active fragment is opened, a name of it steps
   only its owner and the counting recognizer, not the whole fragment
   ([step_opened]); [ck_short] says per checker whether its tables keep
   the invariant that shortcut needs.  Independent references are the
   structural [Monitor], the exact [Machine] and [Semantics]. *)

module Ba = Bigarray.Array1

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t

type verdict =
  | Running
  | Satisfied
  | Violated of { reason : Diag.reason; time : int; index : int }

type rec_state = Idle | Waiting | Started | Counting of int | Done

type persisted = {
  p_recs : rec_state array;
  p_active : int;
  p_index : int;
  p_started : int;
  p_q_done : bool;
  p_rounds : int;
  p_verdict : verdict;
}

type static = {
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

type patch = {
  set_category : (int * int * Context.category) list;
  set_owner : (int * int) list;
  set_terminator : (int * bool) list;
  set_lo : (int * int) list;
  set_hi : (int * int) list;
  set_deadline : int option;
}

(* Control words per checker slab, at [checker_base + offset]. *)
let ctrl_slots = 13
let o_active = 0
let o_verdict = 1 (* 0 running / 1 satisfied / 2 violated *)
let o_index = 2
let o_started = 3 (* -1 = unarmed *)
let o_qdone = 4
let o_rounds = 5

(* Violation descriptor (meaningful when verdict = 2). *)
let o_vreason = 6
let o_vrec = 7 (* global recognizer of a range diagnostic, -1 = none *)
let o_vtime = 8
let o_vindex = 9
let o_va = 10 (* started / deadline *)
let o_vb = 11 (* deadline / at *)
let o_vc = 12 (* now *)

let v_running = 0
let v_satisfied = 1
let v_violated = 2

(* Recognizer states and categories. *)
let s_idle = 0
let s_waiting = 1
let s_started = 2
let s_counting = 3
let s_done = 4
let c_self = 0
let c_current = 1
let c_before = 2
let c_accept = 3
let c_after = 4 (* the fall-through branch of every test *)

(* Recognizer outcomes. *)
let o_quiet = 0
let o_ok = 1
let o_nok = 2
let o_err = 3

(* Violation reason codes (o_vreason). *)
let r_before = 0
let r_after = 1
let r_overflow = 2
let r_underflow = 3
let r_reentered = 4
let r_missing = 5
let r_empty = 6
let r_trigger_early = 7
let r_deadline = 8
let r_late = 9

type t = {
  (* identity *)
  labels : string array;
  patterns : Pattern.t array;
  alphas : Name.Set.t array;
  (* interning *)
  names : Name.t array; (* gid -> name *)
  gids : (Name.t, int) Hashtbl.t;
  (* per checker *)
  ck_base : int array;
  ck_rec0 : int array; (* first global recognizer *)
  ck_nrecs : int array;
  ck_frag0 : int array; (* first global fragment *)
  ck_loc0 : int array; (* base into the local-name tables *)
  ck_nloc : int array;
  ck_q : int array; (* fragment count *)
  ck_repeated : bool array;
  ck_timed : bool array;
  ck_premise_last : int array;
  ck_deadline : int array;
  ck_short : bool array; (* [step_opened] is valid for the checker *)
  timed_cks : int array;
  (* per (checker, local name), flattened at ck_loc0 *)
  loc_owner : int array; (* fragment (checker-local), -1 = terminator-only *)
  loc_term : bool array;
  loc_gid : int array;
  loc_rec : int array; (* the recognizer it is [c_self] of, -1 = none *)
  (* per fragment (global ids) *)
  frag_first : int array; (* global recognizer index *)
  frag_count : int array;
  (* per recognizer (global ids) *)
  rec_lo : int array;
  rec_hi : int array;
  rec_disj : bool array;
  rec_range : Pattern.range array; (* diagnostics *)
  rec_cat0 : int array; (* base into [cat]; row indexed by local id *)
  rec_sslot : int array; (* state slot *)
  rec_cslot : int array; (* counter slot *)
  cat : Bytes.t; (* category codes, one byte per (recognizer, local) *)
  (* name dispatch: CSR rows over gids *)
  sub_off : int array; (* n_names + 1 *)
  sub_ck : int array;
  sub_loc : int array;
  (* run state *)
  st : ba;
  mutable fr : int; (* scratch: failing reason code *)
  mutable fr_rec : int; (* scratch: failing recognizer, -1 = none *)
  mutable rsteps : int; (* [rec_step] calls since compile *)
  (* deadline bookkeeping, beside the slab (never in a blob): the
     timed checkers whose armed deadline may have changed since the
     host last drained them, each listed once ([dl_mark]), or [dl_all]
     after a whole-engine change *)
  dl_mark : Bytes.t;
  dl_dirty : int array;
  mutable dl_ndirty : int;
  mutable dl_all : bool;
  (* opened-fragment cache, beside the slab (never in a blob): the
     checker's active fragment has no waiting recognizer ([op_open]),
     and [op_count] is its one counting recognizer, -1 = none *)
  op_open : Bytes.t;
  op_count : int array;
  mutable notify : (int -> unit) option;
}

let category_code = function
  | Context.Self -> c_self
  | Context.Current -> c_current
  | Context.Before -> c_before
  | Context.Accept -> c_accept
  | Context.After -> c_after
  | Context.Outside -> assert false

let category_decode c =
  if c = c_self then Context.Self
  else if c = c_current then Context.Current
  else if c = c_before then Context.Before
  else if c = c_accept then Context.Accept
  else Context.After

(* ---- compilation ------------------------------------------------------- *)

type pre = {
  p_label : string;
  p_pattern : Pattern.t;
  p_alpha : Name.Set.t;
  p_locals : Name.t array;
  p_owner : int array;
  p_term : bool array;
  p_contexts : Context.t list;
  p_frag_first : int array; (* checker-local recognizer index *)
  p_frag_count : int array;
  p_repeated : bool;
  p_timed : bool;
  p_premise_last : int;
  p_deadline : int;
}

let precompile (label, pattern) =
  Wellformed.check_exn pattern;
  let ordering = Pattern.body_ordering pattern in
  let contexts = List.concat (Context.of_pattern pattern) in
  let alpha = Pattern.alpha pattern in
  let locals = Array.of_list (Name.Set.elements alpha) in
  let n_loc = Array.length locals in
  (* [locals] is sorted: a local id is a binary search away *)
  let id nm =
    let rec search lo hi =
      let mid = (lo + hi) / 2 in
      let c = Name.compare nm locals.(mid) in
      if c = 0 then mid else if c < 0 then search lo mid else search (mid + 1) hi
    in
    search 0 n_loc
  in
  let owner = Array.make n_loc (-1) in
  List.iteri
    (fun f (frag : Pattern.fragment) ->
      List.iter (fun (r : Pattern.range) -> owner.(id r.name) <- f) frag.ranges)
    ordering;
  let term = Array.make n_loc false in
  Name.Set.iter (fun nm -> term.(id nm) <- true) (Context.terminators pattern);
  let q = List.length ordering in
  let frag_first = Array.make q 0 in
  let frag_count = Array.make q 0 in
  let offset = ref 0 in
  List.iteri
    (fun f (frag : Pattern.fragment) ->
      frag_first.(f) <- !offset;
      frag_count.(f) <- List.length frag.ranges;
      offset := !offset + List.length frag.ranges)
    ordering;
  let repeated, timed, premise_last, deadline =
    match pattern with
    | Pattern.Antecedent a -> (a.repeated, false, -2, 0)
    | Pattern.Timed g -> (true, true, List.length g.premise - 1, g.deadline)
  in
  {
    p_label = label;
    p_pattern = pattern;
    p_alpha = alpha;
    p_locals = locals;
    p_owner = owner;
    p_term = term;
    p_contexts = contexts;
    p_frag_first = frag_first;
    p_frag_count = frag_count;
    p_repeated = repeated;
    p_timed = timed;
    p_premise_last = premise_last;
    p_deadline = deadline;
  }

let compile entries =
  let pres = Array.of_list (List.map precompile entries) in
  let n_ck = Array.length pres in
  let total_locs = Array.fold_left (fun a p -> a + Array.length p.p_locals) 0 pres in
  (* Intern every name across the suite, first-appearance order,
     recording each (checker, local) pair's gid on the way. *)
  let gids = Hashtbl.create (max 16 total_locs) in
  let loc_gid = Array.make total_locs 0 in
  let names_rev = ref [] in
  let n_names = ref 0 in
  let next = ref 0 in
  Array.iter
    (fun p ->
      Array.iter
        (fun nm ->
          let gid =
            match Hashtbl.find_opt gids nm with
            | Some gid -> gid
            | None ->
                let gid = !n_names in
                Hashtbl.add gids nm gid;
                names_rev := nm :: !names_rev;
                incr n_names;
                gid
          in
          loc_gid.(!next) <- gid;
          incr next)
        p.p_locals)
    pres;
  let n_names = !n_names in
  let names = Array.of_list (List.rev !names_rev) in
  (* Global extents. *)
  let total_recs =
    Array.fold_left (fun a p -> a + List.length p.p_contexts) 0 pres
  in
  let total_frags = Array.fold_left (fun a p -> a + Array.length p.p_frag_first) 0 pres in
  let cat_bytes =
    Array.fold_left
      (fun a p -> a + (List.length p.p_contexts * Array.length p.p_locals))
      0 pres
  in
  let ck_base = Array.make n_ck 0 in
  let ck_rec0 = Array.make n_ck 0 in
  let ck_nrecs = Array.make n_ck 0 in
  let ck_frag0 = Array.make n_ck 0 in
  let ck_loc0 = Array.make n_ck 0 in
  let ck_nloc = Array.make n_ck 0 in
  let ck_q = Array.make n_ck 0 in
  let ck_repeated = Array.make n_ck false in
  let ck_timed = Array.make n_ck false in
  let ck_premise_last = Array.make n_ck (-2) in
  let ck_deadline = Array.make n_ck 0 in
  let loc_owner = Array.make total_locs (-1) in
  let loc_term = Array.make total_locs false in
  let loc_rec = Array.make total_locs (-1) in
  let frag_first = Array.make total_frags 0 in
  let frag_count = Array.make total_frags 0 in
  let rec_lo = Array.make total_recs 1 in
  let rec_hi = Array.make total_recs 1 in
  let rec_disj = Array.make total_recs false in
  let rec_range =
    Array.make total_recs (Pattern.range ~lo:1 ~hi:1 (Name.v "_"))
  in
  let rec_cat0 = Array.make total_recs 0 in
  let rec_sslot = Array.make total_recs 0 in
  let rec_cslot = Array.make total_recs 0 in
  let cat = Bytes.create (max 1 cat_bytes) in
  let slot = ref 0 in
  let next_rec = ref 0 in
  let next_frag = ref 0 in
  let next_loc = ref 0 in
  let next_cat = ref 0 in
  Array.iteri
    (fun ck p ->
      let n_loc = Array.length p.p_locals in
      let n_recs = List.length p.p_contexts in
      ck_base.(ck) <- !slot;
      ck_rec0.(ck) <- !next_rec;
      ck_nrecs.(ck) <- n_recs;
      ck_frag0.(ck) <- !next_frag;
      ck_loc0.(ck) <- !next_loc;
      ck_nloc.(ck) <- n_loc;
      ck_q.(ck) <- Array.length p.p_frag_first;
      ck_repeated.(ck) <- p.p_repeated;
      ck_timed.(ck) <- p.p_timed;
      ck_premise_last.(ck) <- p.p_premise_last;
      ck_deadline.(ck) <- p.p_deadline;
      Array.iteri
        (fun l owner ->
          loc_owner.(!next_loc + l) <- owner;
          loc_term.(!next_loc + l) <- p.p_term.(l))
        p.p_owner;
      Array.iteri
        (fun f first ->
          frag_first.(!next_frag + f) <- ck_rec0.(ck) + first;
          frag_count.(!next_frag + f) <- p.p_frag_count.(f))
        p.p_frag_first;
      List.iteri
        (fun j ctx ->
          let r = !next_rec + j in
          rec_lo.(r) <- ctx.Context.range.Pattern.lo;
          rec_hi.(r) <- ctx.Context.range.Pattern.hi;
          rec_disj.(r) <- ctx.Context.connective = Pattern.Any;
          rec_range.(r) <- ctx.Context.range;
          rec_cat0.(r) <- !next_cat + (j * n_loc);
          rec_sslot.(r) <- !slot + ctrl_slots + j;
          rec_cslot.(r) <- !slot + ctrl_slots + n_recs + j;
          Array.iteri
            (fun l nm ->
              let c = category_code (Context.classify ctx nm) in
              Bytes.set cat (rec_cat0.(r) + l) (Char.chr c))
            p.p_locals)
        p.p_contexts;
      slot := !slot + ctrl_slots + (2 * n_recs);
      next_rec := !next_rec + n_recs;
      next_frag := !next_frag + Array.length p.p_frag_first;
      next_loc := !next_loc + n_loc;
      next_cat := !next_cat + (n_recs * n_loc))
    pres;
  (* Dispatch CSR: one row per gid, (checker, local) pairs in suite
     order. *)
  let counts = Array.make (n_names + 1) 0 in
  Array.iter (fun gid -> counts.(gid + 1) <- counts.(gid + 1) + 1) loc_gid;
  let sub_off = Array.make (n_names + 1) 0 in
  for g = 1 to n_names do
    sub_off.(g) <- sub_off.(g - 1) + counts.(g)
  done;
  let sub_ck = Array.make (max 1 total_locs) 0 in
  let sub_loc = Array.make (max 1 total_locs) 0 in
  let cursor = Array.copy sub_off in
  Array.iteri
    (fun ck _ ->
      for l = 0 to ck_nloc.(ck) - 1 do
        let gid = loc_gid.(ck_loc0.(ck) + l) in
        let k = cursor.(gid) in
        sub_ck.(k) <- ck;
        sub_loc.(k) <- l;
        cursor.(gid) <- k + 1
      done)
    pres;
  let st = Ba.create Bigarray.int Bigarray.c_layout (max 1 !slot) in
  Ba.fill st 0;
  let t =
    {
      labels = Array.map (fun p -> p.p_label) pres;
      patterns = Array.map (fun p -> p.p_pattern) pres;
      alphas = Array.map (fun p -> p.p_alpha) pres;
      names;
      gids;
      ck_base;
      ck_rec0;
      ck_nrecs;
      ck_frag0;
      ck_loc0;
      ck_nloc;
      ck_q;
      ck_repeated;
      ck_timed;
      ck_premise_last;
      ck_deadline;
      ck_short = Array.make n_ck false;
      timed_cks =
        Array.of_list
          (List.filter
             (fun ck -> ck_timed.(ck))
             (List.init n_ck (fun i -> i)));
      loc_owner;
      loc_term;
      loc_gid;
      loc_rec;
      frag_first;
      frag_count;
      rec_lo;
      rec_hi;
      rec_disj;
      rec_range;
      rec_cat0;
      rec_sslot;
      rec_cslot;
      cat;
      sub_off;
      sub_ck;
      sub_loc;
      st;
      fr = r_empty;
      fr_rec = -1;
      rsteps = 0;
      dl_mark = Bytes.make n_ck '\000';
      dl_dirty = Array.make (max 1 n_ck) 0;
      dl_ndirty = 0;
      dl_all = false;
      op_open = Bytes.make n_ck '\000';
      op_count = Array.make n_ck (-1);
      notify = None;
    }
  in
  t

(* ---- deadline bookkeeping ---------------------------------------------- *)

(* [ck]'s armed deadline may have changed: list it for the host's next
   drain (untimed checkers never arm one). *)
let touch t ck =
  if
    Array.unsafe_get t.ck_timed ck
    && Bytes.unsafe_get t.dl_mark ck = '\000'
  then begin
    Bytes.unsafe_set t.dl_mark ck '\001';
    Array.unsafe_set t.dl_dirty t.dl_ndirty ck;
    t.dl_ndirty <- t.dl_ndirty + 1
  end

let deadlines_dirty t = t.dl_ndirty > 0 || t.dl_all

(* Marks are cleared before [f] runs, so a checker [f] touches again is
   listed afresh (and handed over in the same drain). *)
let drain_deadlines t f =
  if t.dl_all then begin
    t.dl_all <- false;
    for i = 0 to t.dl_ndirty - 1 do
      Bytes.unsafe_set t.dl_mark (Array.unsafe_get t.dl_dirty i) '\000'
    done;
    t.dl_ndirty <- 0;
    Array.iter f t.timed_cks
  end;
  let i = ref 0 in
  while !i < t.dl_ndirty do
    let ck = Array.unsafe_get t.dl_dirty !i in
    Bytes.unsafe_set t.dl_mark ck '\000';
    f ck;
    incr i
  done;
  t.dl_ndirty <- 0

(* ---- initial configuration -------------------------------------------- *)

let init_checker t ck =
  let base = t.ck_base.(ck) in
  let n = t.ck_nrecs.(ck) in
  for i = 0 to ctrl_slots + (2 * n) - 1 do
    Ba.set t.st (base + i) 0
  done;
  Ba.set t.st (base + o_started) (-1);
  Ba.set t.st (base + o_vrec) (-1);
  Bytes.set t.op_open ck '\000';
  let g0 = t.ck_frag0.(ck) in
  for r = t.frag_first.(g0) to t.frag_first.(g0) + t.frag_count.(g0) - 1 do
    Ba.set t.st t.rec_sslot.(r) s_waiting
  done

let reset_checker t ck =
  init_checker t ck;
  touch t ck

let reset t =
  for ck = 0 to Array.length t.labels - 1 do
    init_checker t ck
  done;
  t.dl_all <- true

(* [r]'s category of the checker-local name [loc]. *)
let cat_of t r loc =
  Char.code (Bytes.unsafe_get t.cat (Array.unsafe_get t.rec_cat0 r + loc))

(* Index [ck]'s names by the recognizer they are [c_self] of, and decide
   whether [step_opened] may step [ck]: every owned name must be
   [c_self] in exactly its [loc_rec] recognizer, inside its owner
   fragment, and [c_current] in that recognizer's siblings.  Tables
   compiled from a pattern always are; a table patch (a category swap,
   an owner move) can break it, and then the checker steps whole
   fragments. *)
let index_self t ck =
  let l0 = t.ck_loc0.(ck) and r0 = t.ck_rec0.(ck) in
  let short = ref true in
  for l = 0 to t.ck_nloc.(ck) - 1 do
    let own = ref (-1) in
    for r = r0 to r0 + t.ck_nrecs.(ck) - 1 do
      if cat_of t r l = c_self then own := r
    done;
    t.loc_rec.(l0 + l) <- !own;
    let f = t.loc_owner.(l0 + l) in
    if f >= 0 then begin
      let gf = t.ck_frag0.(ck) + f in
      let first = t.frag_first.(gf) in
      let last = first + t.frag_count.(gf) - 1 in
      if !own < first || !own > last then short := false;
      for r = first to last do
        if cat_of t r l <> (if r = !own then c_self else c_current) then
          short := false
      done
    end
  done;
  t.ck_short.(ck) <- !short

let compile entries =
  let t = compile entries in
  for ck = 0 to Array.length t.labels - 1 do
    index_self t ck;
    init_checker t ck
  done;
  t

(* ---- table patches ----------------------------------------------------- *)

let patched t p =
  if Array.length t.labels <> 1 then
    invalid_arg "Flat.patched: not a one-checker engine";
  let n_names = t.ck_nloc.(0) and n_recs = t.ck_nrecs.(0) in
  let check_id id =
    if id < 0 || id >= n_names then
      invalid_arg "Flat.patched: name id out of range"
  in
  let check_rec r =
    if r < 0 || r >= n_recs then
      invalid_arg "Flat.patched: recognizer index out of range"
  in
  (* A fresh engine of the same pattern, carrying [t]'s tables (which
     may be patched already). *)
  let m = compile [ (t.labels.(0), t.patterns.(0)) ] in
  Array.blit t.loc_owner 0 m.loc_owner 0 n_names;
  Array.blit t.loc_term 0 m.loc_term 0 n_names;
  Array.blit t.rec_lo 0 m.rec_lo 0 n_recs;
  Array.blit t.rec_hi 0 m.rec_hi 0 n_recs;
  Array.blit t.rec_range 0 m.rec_range 0 n_recs;
  Bytes.blit t.cat 0 m.cat 0 (Bytes.length t.cat);
  m.ck_deadline.(0) <- t.ck_deadline.(0);
  List.iter
    (fun (r, id, c) ->
      check_rec r;
      check_id id;
      Bytes.set m.cat (m.rec_cat0.(r) + id) (Char.chr (category_code c)))
    p.set_category;
  List.iter
    (fun (id, f) ->
      check_id id;
      if f < -1 || f >= m.ck_q.(0) then
        invalid_arg "Flat.patched: fragment index out of range";
      m.loc_owner.(id) <- f)
    p.set_owner;
  List.iter
    (fun (id, b) ->
      check_id id;
      m.loc_term.(id) <- b)
    p.set_terminator;
  List.iter
    (fun (r, v) ->
      check_rec r;
      m.rec_lo.(r) <- v)
    p.set_lo;
  List.iter
    (fun (r, v) ->
      check_rec r;
      m.rec_hi.(r) <- v)
    p.set_hi;
  (* Keep the diagnostic ranges (and hence [static]) consistent with the
     patched bounds; [Pattern.range] re-validates 1 <= lo <= hi. *)
  for r = 0 to n_recs - 1 do
    if m.rec_lo.(r) <> t.rec_lo.(r) || m.rec_hi.(r) <> t.rec_hi.(r) then
      m.rec_range.(r) <-
        Pattern.range ~lo:m.rec_lo.(r) ~hi:m.rec_hi.(r)
          t.rec_range.(r).Pattern.name
  done;
  (match p.set_deadline with
  | None -> ()
  | Some d ->
      if d < 0 then invalid_arg "Flat.patched: negative deadline";
      m.ck_deadline.(0) <- d);
  index_self m 0;
  m

(* ---- identity ---------------------------------------------------------- *)

let size t = Array.length t.labels
let label t ck = t.labels.(ck)
let pattern t ck = t.patterns.(ck)
let alphabet t ck = t.alphas.(ck)
let names t = t.names
let gid_of_name t nm = Hashtbl.find_opt t.gids nm

(* A scan of [gid]'s dispatch row, whose checkers are in suite order:
   rows are short (the checkers hearing one name). *)
let local_of_gid t ck gid =
  let hi = t.sub_off.(gid + 1) in
  let rec find k =
    if k >= hi || t.sub_ck.(k) > ck then -1
    else if t.sub_ck.(k) = ck then t.sub_loc.(k)
    else find (k + 1)
  in
  find t.sub_off.(gid)

let local_of_name t ck nm =
  match Hashtbl.find_opt t.gids nm with
  | None -> -1
  | Some gid -> local_of_gid t ck gid

let set_notify t f = t.notify <- f

(* ---- verdict accessors ------------------------------------------------- *)

let verdict_code t ck = Ba.get t.st (t.ck_base.(ck) + o_verdict)
let active_fragment t ck = Ba.get t.st (t.ck_base.(ck) + o_active)
let index t ck = Ba.get t.st (t.ck_base.(ck) + o_index)
let rounds_completed t ck = Ba.get t.st (t.ck_base.(ck) + o_rounds)

let reason_of t ck : Diag.reason =
  let base = t.ck_base.(ck) in
  let range () = t.rec_range.(Ba.get t.st (base + o_vrec)) in
  let code = Ba.get t.st (base + o_vreason) in
  if code = r_before then Diag.Before_name
  else if code = r_after then Diag.After_name
  else if code = r_overflow then Diag.Overflow (range ())
  else if code = r_underflow then Diag.Underflow (range ())
  else if code = r_reentered then Diag.Reentered (range ())
  else if code = r_missing then Diag.Missing (range ())
  else if code = r_empty then Diag.Empty_fragment
  else if code = r_trigger_early then Diag.Trigger_early
  else if code = r_deadline then
    Diag.Deadline_miss
      {
        started = Ba.get t.st (base + o_va);
        deadline = Ba.get t.st (base + o_vb);
        now = Ba.get t.st (base + o_vc);
      }
  else
    Diag.Late_conclusion
      { deadline = Ba.get t.st (base + o_va); at = Ba.get t.st (base + o_vb) }

let verdict t ck =
  let base = t.ck_base.(ck) in
  let v = Ba.get t.st (base + o_verdict) in
  if v = v_running then Running
  else if v = v_satisfied then Satisfied
  else
    Violated
      {
        reason = reason_of t ck;
        time = Ba.get t.st (base + o_vtime);
        index = Ba.get t.st (base + o_vindex);
      }

(* ---- the step machine -------------------------------------------------- *)

let violate t ck ~reason ~vrec ~time ~idx ~a ~b ~c =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  Ba.unsafe_set st (base + o_verdict) v_violated;
  Ba.unsafe_set st (base + o_vreason) reason;
  Ba.unsafe_set st (base + o_vrec) vrec;
  Ba.unsafe_set st (base + o_vtime) time;
  Ba.unsafe_set st (base + o_vindex) idx;
  Ba.unsafe_set st (base + o_va) a;
  Ba.unsafe_set st (base + o_vb) b;
  Ba.unsafe_set st (base + o_vc) c;
  touch t ck;
  match t.notify with Some f -> f ck | None -> ()

(* One Fig. 5 recognizer step; on [o_err] the reason is in
   [t.fr]/[t.fr_rec] (single-threaded monitors, allocation-free). *)
let rec_step t r c =
  t.rsteps <- t.rsteps + 1;
  let st = t.st in
  let ss = Array.unsafe_get t.rec_sslot r in
  let s = Ba.unsafe_get st ss in
  let fail code =
    t.fr <- code;
    t.fr_rec <- r;
    o_err
  in
  if s = s_waiting || s = s_started then
    if c = c_self then begin
      Ba.unsafe_set st ss s_counting;
      Ba.unsafe_set st (Array.unsafe_get t.rec_cslot r) 1;
      o_quiet
    end
    else if c = c_current then begin
      if s = s_waiting then Ba.unsafe_set st ss s_started;
      o_quiet
    end
    else if c = c_accept then
      if Array.unsafe_get t.rec_disj r then begin
        Ba.unsafe_set st ss s_idle;
        o_nok
      end
      else fail r_missing
    else if c = c_before then fail r_before
    else fail r_after
  else if s = s_counting then begin
    let cs = Array.unsafe_get t.rec_cslot r in
    let n = Ba.unsafe_get st cs in
    if c = c_self then
      if n >= Array.unsafe_get t.rec_hi r then fail r_overflow
      else begin
        Ba.unsafe_set st cs (n + 1);
        o_quiet
      end
    else if c = c_current then
      if n >= Array.unsafe_get t.rec_lo r then begin
        Ba.unsafe_set st ss s_done;
        o_quiet
      end
      else fail r_underflow
    else if c = c_accept then
      if n >= Array.unsafe_get t.rec_lo r then begin
        Ba.unsafe_set st ss s_idle;
        o_ok
      end
      else fail r_underflow
    else if c = c_before then fail r_before
    else fail r_after
  end
  else if s = s_done then
    if c = c_self then fail r_reentered
    else if c = c_current then o_quiet
    else if c = c_accept then begin
      Ba.unsafe_set st ss s_idle;
      o_ok
    end
    else if c = c_before then fail r_before
    else fail r_after
  else o_quiet (* idle: not stepped in practice *)

(* Would the active fragment complete on an Accept right now? *)
let min_complete t ck =
  let st = t.st in
  let f = Ba.unsafe_get st (Array.unsafe_get t.ck_base ck + o_active) in
  if f < 0 then false
  else begin
    let gf = Array.unsafe_get t.ck_frag0 ck + f in
    let first = Array.unsafe_get t.frag_first gf in
    let oks = ref 0 in
    let viable = ref true in
    for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
      let s = Ba.unsafe_get st (Array.unsafe_get t.rec_sslot r) in
      if s = s_counting then
        if
          Ba.unsafe_get st (Array.unsafe_get t.rec_cslot r)
          >= Array.unsafe_get t.rec_lo r
        then incr oks
        else viable := false
      else if s = s_done then incr oks
      else if not (Array.unsafe_get t.rec_disj r) then viable := false
    done;
    !viable && !oks > 0
  end

(* Deliver Accept to the active fragment; true on success. *)
let try_complete t ck ~time =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  let f = Ba.unsafe_get st (base + o_active) in
  let gf = Array.unsafe_get t.ck_frag0 ck + f in
  let first = Array.unsafe_get t.frag_first gf in
  let oks = ref 0 in
  let failed = ref false in
  t.fr <- r_empty;
  t.fr_rec <- -1;
  for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
    if not !failed then begin
      let o = rec_step t r c_accept in
      if o = o_ok then incr oks else if o = o_err then failed := true
    end
  done;
  let idx = Ba.unsafe_get st (base + o_index) - 1 in
  if !failed then begin
    violate t ck ~reason:t.fr ~vrec:t.fr_rec ~time ~idx ~a:0 ~b:0 ~c:0;
    false
  end
  else if !oks = 0 then begin
    violate t ck ~reason:r_empty ~vrec:(-1) ~time ~idx ~a:0 ~b:0 ~c:0;
    false
  end
  else true

let start_fragment_with t ck f loc =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  Ba.unsafe_set st (base + o_active) f;
  Bytes.unsafe_set t.op_open ck '\000';
  let gf = Array.unsafe_get t.ck_frag0 ck + f in
  let first = Array.unsafe_get t.frag_first gf in
  for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
    if cat_of t r loc = c_self then begin
      Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_counting;
      Ba.unsafe_set st (Array.unsafe_get t.rec_cslot r) 1
    end
    else Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_started
  done

(* Step every recognizer of [ck]'s fragment [f] on [loc], in
   recognizer order up to the first error; true on error. *)
let step_fragment t ck f loc =
  let gf = Array.unsafe_get t.ck_frag0 ck + f in
  let first = Array.unsafe_get t.frag_first gf in
  let failed = ref false in
  for r = first to first + Array.unsafe_get t.frag_count gf - 1 do
    if not !failed then
      if rec_step t r (cat_of t r loc) = o_err then failed := true
  done;
  !failed

(* The same step once the fragment is opened.  No recognizer waits and
   [c_current] leaves a started, done or idle one as it is, so only
   the counting recognizer and the owner [own] of [loc] can move:
   stepping those two in recognizer order, up to the first error,
   leaves the slab and [t.fr]/[t.fr_rec] as [step_fragment] does. *)
let step_opened t ck own loc =
  let cnt = Array.unsafe_get t.op_count ck in
  if cnt < 0 || cnt = own then rec_step t own c_self = o_err
  else if cnt < own then
    rec_step t cnt (cat_of t cnt loc) = o_err
    || rec_step t own c_self = o_err
  else
    rec_step t own c_self = o_err
    || rec_step t cnt (cat_of t cnt loc) = o_err

let refresh_timed t ck ~time =
  if Array.unsafe_get t.ck_timed ck then begin
    let st = t.st in
    let base = Array.unsafe_get t.ck_base ck in
    let active = Ba.unsafe_get st (base + o_active) in
    if active = Array.unsafe_get t.ck_premise_last ck && min_complete t ck
    then begin
      Ba.unsafe_set st (base + o_started) time;
      touch t ck
    end
    else if
      active = Array.unsafe_get t.ck_q ck - 1
      && Ba.unsafe_get st (base + o_qdone) = 0
      && min_complete t ck
    then begin
      Ba.unsafe_set st (base + o_qdone) 1;
      Ba.unsafe_set st (base + o_rounds) (Ba.unsafe_get st (base + o_rounds) + 1);
      touch t ck
    end
  end

(* The internal dispatch path: [ck]/[loc] are trusted (they come from
   the engine's own tables).  The deadline slots are only read once the
   checker is known to be timed and armed, so untimed checkers pay
   nothing for them on the hot path. *)
let step_trusted t ck loc ~time =
  let st = t.st in
  let base = Array.unsafe_get t.ck_base ck in
  if Ba.unsafe_get st (base + o_verdict) = v_running then begin
    let idx = Ba.unsafe_get st (base + o_index) + 1 in
    Ba.unsafe_set st (base + o_index) idx;
    let timed = Array.unsafe_get t.ck_timed ck in
    let started = if timed then Ba.unsafe_get st (base + o_started) else -1 in
    let armed = timed && started >= 0 in
    let dl =
      if armed then started + Array.unsafe_get t.ck_deadline ck else max_int
    in
    let qdone = armed && Ba.unsafe_get st (base + o_qdone) = 1 in
    let f = Array.unsafe_get t.loc_owner (Array.unsafe_get t.ck_loc0 ck + loc) in
    if armed && (not qdone) && time > dl then
      violate t ck ~reason:r_deadline ~vrec:(-1) ~time ~idx:(idx - 1)
        ~a:started ~b:dl ~c:time
    else if
      armed && qdone && time > dl && f > Array.unsafe_get t.ck_premise_last ck
    then
      violate t ck ~reason:r_late ~vrec:(-1) ~time ~idx:(idx - 1) ~a:dl ~b:time
        ~c:0
    else begin
      let active = Ba.unsafe_get st (base + o_active) in
      let last = Array.unsafe_get t.ck_q ck - 1 in
      if f = active then begin
        let own =
          Array.unsafe_get t.loc_rec (Array.unsafe_get t.ck_loc0 ck + loc)
        in
        t.fr <- r_empty;
        t.fr_rec <- -1;
        let failed =
          if Bytes.unsafe_get t.op_open ck = '\000' then
            step_fragment t ck f loc
          else step_opened t ck own loc
        in
        if failed then
          violate t ck ~reason:t.fr ~vrec:t.fr_rec ~time ~idx:(idx - 1) ~a:0
            ~b:0 ~c:0
        else begin
          (* Every recognizer took [c_self] or [c_current]: none waits,
             and the owner is the only one left counting. *)
          if Array.unsafe_get t.ck_short ck then begin
            Bytes.unsafe_set t.op_open ck '\001';
            Array.unsafe_set t.op_count ck
              (if
                 Ba.unsafe_get st (Array.unsafe_get t.rec_sslot own)
                 = s_counting
               then own
               else -1)
          end;
          refresh_timed t ck ~time
        end
      end
      else if
        active = last && Array.unsafe_get t.loc_term (t.ck_loc0.(ck) + loc)
      then begin
        if try_complete t ck ~time then
          if not timed then begin
            Ba.unsafe_set st (base + o_rounds)
              (Ba.unsafe_get st (base + o_rounds) + 1);
            if Array.unsafe_get t.ck_repeated ck then begin
              (* fresh round, bare start *)
              let g0 = Array.unsafe_get t.ck_frag0 ck in
              let first = Array.unsafe_get t.frag_first g0 in
              for r = first to first + Array.unsafe_get t.frag_count g0 - 1 do
                Ba.unsafe_set st (Array.unsafe_get t.rec_sslot r) s_waiting
              done;
              Ba.unsafe_set st (base + o_active) 0;
              Bytes.unsafe_set t.op_open ck '\000'
            end
            else begin
              Ba.unsafe_set st (base + o_verdict) v_satisfied;
              match t.notify with Some g -> g ck | None -> ()
            end
          end
          else begin
            (* timed: the terminator opens the next round *)
            start_fragment_with t ck 0 loc;
            Ba.unsafe_set st (base + o_started) (-1);
            Ba.unsafe_set st (base + o_qdone) 0;
            touch t ck;
            refresh_timed t ck ~time
          end
      end
      else if f = active + 1 then begin
        if try_complete t ck ~time then begin
          start_fragment_with t ck f loc;
          refresh_timed t ck ~time
        end
      end
      else if f >= 0 && f <= active then
        violate t ck ~reason:r_before ~vrec:(-1) ~time ~idx:(idx - 1) ~a:0 ~b:0
          ~c:0
      else if f >= 0 then
        violate t ck ~reason:r_after ~vrec:(-1) ~time ~idx:(idx - 1) ~a:0 ~b:0
          ~c:0
      else
        violate t ck ~reason:r_trigger_early ~vrec:(-1) ~time ~idx:(idx - 1)
          ~a:0 ~b:0 ~c:0
    end
  end

let recognizer_steps t = t.rsteps

let step_local t ck loc ~time =
  if ck < 0 || ck >= Array.length t.labels then
    invalid_arg "Flat.step_local: checker out of range";
  if loc < 0 || loc >= t.ck_nloc.(ck) then
    invalid_arg "Flat.step_local: local name out of range";
  step_trusted t ck loc ~time

let step_name t ~gid ~time =
  let lo = Array.unsafe_get t.sub_off gid in
  let hi = Array.unsafe_get t.sub_off (gid + 1) in
  for k = lo to hi - 1 do
    step_trusted t (Array.unsafe_get t.sub_ck k) (Array.unsafe_get t.sub_loc k)
      ~time
  done

let step_event t (e : Trace.event) =
  match Hashtbl.find_opt t.gids e.name with
  | Some gid -> step_name t ~gid ~time:e.time
  | None -> ()

let step_checker t ck (e : Trace.event) =
  let loc = local_of_name t ck e.name in
  if loc >= 0 then step_trusted t ck loc ~time:e.time

(* ---- time -------------------------------------------------------------- *)

let check_time_checker t ck ~now =
  let st = t.st in
  let base = t.ck_base.(ck) in
  if
    Ba.get st (base + o_verdict) = v_running
    && t.ck_timed.(ck)
    && Ba.get st (base + o_started) >= 0
    && Ba.get st (base + o_qdone) = 0
  then begin
    let started = Ba.get st (base + o_started) in
    let dl = started + t.ck_deadline.(ck) in
    if now > dl then begin
      Ba.set st (base + o_verdict) v_violated;
      Ba.set st (base + o_vreason) r_deadline;
      Ba.set st (base + o_vrec) (-1);
      Ba.set st (base + o_vtime) dl;
      Ba.set st (base + o_vindex) (-1);
      Ba.set st (base + o_va) started;
      Ba.set st (base + o_vb) dl;
      Ba.set st (base + o_vc) now;
      touch t ck;
      match t.notify with Some f -> f ck | None -> ()
    end
  end

let check_time t ~now =
  Array.iter (fun ck -> check_time_checker t ck ~now) t.timed_cks

let finalize t ~now = check_time t ~now

(* Each armed deadline [dl] (the test [next_deadline_checker] makes,
   without its option) fires at its exact expiry instant [dl + 1]. *)
let fire_due t ~upto =
  let st = t.st in
  for k = 0 to Array.length t.timed_cks - 1 do
    let ck = Array.unsafe_get t.timed_cks k in
    let base = t.ck_base.(ck) in
    let started = Ba.get st (base + o_started) in
    if
      started >= 0
      && Ba.get st (base + o_verdict) = v_running
      && Ba.get st (base + o_qdone) = 0
    then begin
      let now = started + t.ck_deadline.(ck) + 1 in
      if now <= upto then check_time_checker t ck ~now
    end
  done

let next_deadline_checker t ck =
  let st = t.st in
  let base = t.ck_base.(ck) in
  if
    Ba.get st (base + o_verdict) = v_running
    && t.ck_timed.(ck)
    && Ba.get st (base + o_started) >= 0
    && Ba.get st (base + o_qdone) = 0
  then Some (Ba.get st (base + o_started) + t.ck_deadline.(ck))
  else None

let next_deadline t =
  Array.fold_left
    (fun acc ck ->
      match next_deadline_checker t ck with
      | None -> acc
      | Some d -> (
          match acc with Some m when m <= d -> acc | _ -> Some d))
    None t.timed_cks

(* ---- persistence ------------------------------------------------------- *)

let persist_checker t ck =
  let base = t.ck_base.(ck) in
  let n = t.ck_nrecs.(ck) in
  {
    p_recs =
      Array.init n (fun j ->
          let s = Ba.get t.st (base + ctrl_slots + j) in
          if s = s_idle then Idle
          else if s = s_waiting then Waiting
          else if s = s_started then Started
          else if s = s_counting then
            Counting (Ba.get t.st (base + ctrl_slots + n + j))
          else Done);
    p_active = Ba.get t.st (base + o_active);
    p_index = Ba.get t.st (base + o_index);
    p_started = Ba.get t.st (base + o_started);
    p_q_done = Ba.get t.st (base + o_qdone) = 1;
    p_rounds = Ba.get t.st (base + o_rounds);
    p_verdict = verdict t ck;
  }

(* ---- engine-to-engine copies ------------------------------------------ *)

(* Overwrite checker [ck] of [t] with checker [from] of [src], which
   holds the same pattern: one slot-range copy.  Every control word is
   checker-local except [o_vrec], a global recognizer index, rebased by
   the two checkers' first recognizers. *)
let blit_checker ~src from t ck =
  let base = t.ck_base.(ck) and src_base = src.ck_base.(from) in
  for i = 0 to ctrl_slots + (2 * t.ck_nrecs.(ck)) - 1 do
    Ba.set t.st (base + i) (Ba.get src.st (src_base + i))
  done;
  let vrec = Ba.get t.st (base + o_vrec) in
  if vrec >= 0 then
    Ba.set t.st (base + o_vrec) (vrec - src.ck_rec0.(from) + t.ck_rec0.(ck));
  Bytes.set t.op_open ck '\000';
  touch t ck

let copy_checker ~src t ck =
  if
    Ba.dim src.st <> Ba.dim t.st
    || src.ck_base.(ck) <> t.ck_base.(ck)
    || src.ck_nrecs.(ck) <> t.ck_nrecs.(ck)
  then invalid_arg "Flat.copy_checker: engines of different suites";
  blit_checker ~src ck t ck

(* ---- blob -------------------------------------------------------------- *)

let used_slots t =
  match Array.length t.ck_base with
  | 0 -> 0
  | n -> t.ck_base.(n - 1) + ctrl_slots + (2 * t.ck_nrecs.(n - 1))

let blob_version = 1
let magic = "LSQF"

(* Slots are zigzag varints (LEB128): a fresh 64-checker suite is
   mostly zeros and small codes, so almost every slot is one byte —
   the whole-suite blob stays an order of magnitude below 64
   per-checker JSON states. *)
let put_varint buf v =
  let u = (v lsl 1) lxor (v asr 62) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

(* [Ok (value, next offset)] or [Error ()] on truncation/overlength. *)
let get_varint s off =
  let len = String.length s in
  let rec go u shift off =
    if off >= len || shift > 63 then Error ()
    else
      let b = Char.code s.[off] in
      let u = u lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok ((u lsr 1) lxor (-(u land 1)), off + 1)
      else go u (shift + 7) (off + 1)
  in
  go 0 0 off

let save_blob t =
  let n = used_slots t in
  let buf = Buffer.create (16 + (2 * n)) in
  Buffer.add_string buf magic;
  let b4 = Bytes.create 4 in
  Bytes.set_int32_le b4 0 (Int32.of_int blob_version);
  Buffer.add_bytes buf b4;
  put_varint buf n;
  for i = 0 to n - 1 do
    put_varint buf (Ba.get t.st i)
  done;
  Buffer.contents buf

(* The first word of checker [ck] in [slots] that no step, deadline or
   restore of this suite can write, described; [None] when every word
   fits. *)
let unfit_word t (slots : int array) ck =
  let base = t.ck_base.(ck) and n = t.ck_nrecs.(ck) and r0 = t.ck_rec0.(ck) in
  let word o = slots.(base + o) in
  let verdict = word o_verdict and reason = word o_vreason in
  let vrec = word o_vrec and active = word o_active in
  let bad_state =
    List.find_opt
      (fun j ->
        let s = slots.(base + ctrl_slots + j) in
        s < s_idle || s > s_done)
      (List.init n Fun.id)
  in
  if verdict < v_running || verdict > v_violated then
    Some (Printf.sprintf "verdict code %d is out of range" verdict)
  else if reason < r_before || reason > r_late then
    Some (Printf.sprintf "violation reason code %d is out of range" reason)
  else if vrec <> -1 && (vrec < r0 || vrec >= r0 + n) then
    Some (Printf.sprintf "diagnostic recognizer %d is not one of its own" vrec)
  else if
    verdict = v_violated && reason >= r_overflow && reason <= r_missing
    && vrec = -1
  then Some "a range diagnostic has no recognizer"
  else if active < 0 || active >= t.ck_q.(ck) then
    Some (Printf.sprintf "active fragment %d is out of range" active)
  else if word o_qdone <> 0 && word o_qdone <> 1 then
    Some (Printf.sprintf "conclusion flag %d is not 0 or 1" (word o_qdone))
  else
    Option.map
      (fun j ->
        Printf.sprintf "recognizer %d has state code %d" j
          slots.(base + ctrl_slots + j))
      bad_state

let load_blob t blob =
  let len = String.length blob in
  if len < 8 || String.sub blob 0 4 <> magic then
    Error "not a flat-engine state blob (bad magic)"
  else
    let version = Int32.to_int (String.get_int32_le blob 4) in
    if version <> blob_version then
      Error
        (Printf.sprintf "unsupported flat blob version %d (expected %d)"
           version blob_version)
    else
      let truncated =
        Error (Printf.sprintf "flat blob is truncated (%d bytes)" len)
      in
      match get_varint blob 8 with
      | Error () -> truncated
      | Ok (n, off0) ->
          let expected = used_slots t in
          if n <> expected then
            Error
              (Printf.sprintf
                 "flat blob carries %d state slots, this engine has %d \
                  (different suite?)"
                 n expected)
          else begin
            (* Decode into a scratch first: a truncated blob must not
               leave the engine half-overwritten. *)
            let slots = Array.make n 0 in
            let rec fill i off =
              if i = n then if off = len then Ok () else truncated
              else
                match get_varint blob off with
                | Error () -> truncated
                | Ok (v, off) ->
                    slots.(i) <- v;
                    fill (i + 1) off
            in
            let unfit () =
              List.find_map
                (fun ck ->
                  Option.map (fun what -> (ck, what)) (unfit_word t slots ck))
                (List.init (size t) Fun.id)
            in
            match fill 0 off0 with
            | Error _ as e -> e
            | Ok () -> (
                match unfit () with
                | Some (ck, what) ->
                    Error
                      (Printf.sprintf
                         "flat blob: checker %d (%S): %s; no engine of \
                          this suite writes that"
                         ck (label t ck) what)
                | None ->
                    for i = 0 to n - 1 do
                      Ba.set t.st i slots.(i)
                    done;
                    Bytes.fill t.op_open 0 (Bytes.length t.op_open) '\000';
                    t.dl_all <- true;
                    Ok ())
          end

(* ---- static tables ----------------------------------------------------- *)

let static t ck =
  let l0 = t.ck_loc0.(ck) and n_loc = t.ck_nloc.(ck) in
  let r0 = t.ck_rec0.(ck) and n_recs = t.ck_nrecs.(ck) in
  let g0 = t.ck_frag0.(ck) and q = t.ck_q.(ck) in
  {
    names = Array.init n_loc (fun l -> t.names.(t.loc_gid.(l0 + l)));
    owner = Array.sub t.loc_owner l0 n_loc;
    terminator = Array.sub t.loc_term l0 n_loc;
    category =
      Array.init n_recs (fun j ->
          Array.init n_loc (fun l -> category_decode (cat_of t (r0 + j) l)));
    rec_range = Array.sub t.rec_range r0 n_recs;
    rec_disjunctive = Array.sub t.rec_disj r0 n_recs;
    frag_first = Array.init q (fun f -> t.frag_first.(g0 + f) - r0);
    frag_count = Array.sub t.frag_count g0 q;
    fragments = q;
    repeated = t.ck_repeated.(ck);
    timed = t.ck_timed.(ck);
    premise_last = t.ck_premise_last.(ck);
    deadline = t.ck_deadline.(ck);
  }

(* ---- layout ------------------------------------------------------------ *)

type layout = {
  total_slots : int;
  checker_base : int array;
  state_slot : int array;
  counter_slot : int array;
}

let layout t =
  {
    total_slots = used_slots t;
    checker_base = Array.copy t.ck_base;
    state_slot = Array.copy t.rec_sslot;
    counter_slot = Array.copy t.rec_cslot;
  }

let checker_slots t ck =
  if ck < 0 || ck >= Array.length t.labels then
    invalid_arg "Flat.checker_slots: checker out of range";
  ctrl_slots + (2 * t.ck_nrecs.(ck))

let slice t cks =
  let n = size t in
  let seen = Array.make n false in
  List.iter
    (fun ck ->
      if ck < 0 || ck >= n then invalid_arg "Flat.slice: checker out of range";
      if seen.(ck) then invalid_arg "Flat.slice: duplicate checker";
      seen.(ck) <- true)
    cks;
  let sliced = compile (List.map (fun ck -> (label t ck, pattern t ck)) cks) in
  List.iteri (fun i ck -> blit_checker ~src:t ck sliced i) cks;
  sliced
