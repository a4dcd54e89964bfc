open Loseq_core
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace
module Robust = Loseq_analysis.Robust

type notice =
  | Violation of {
      index : int;
      label : string;
      violation : Diag.violation;
      settled : bool;
    }
  | Retracted of { index : int; label : string }
  | Settled of { index : int; label : string; verdict : Backend.verdict }

type stats = {
  applied : int;
  late : int;
  commute_hits : int;
  rollbacks : int;
  replayed : int;
  settled_events : int;
  dropped_late : int;
  max_journal : int;
}

(* Commuting gid pairs, keyed [a * names + b]. *)
module Pairs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Per-checker speculation state beside the engine's slab.
   [certified]: the analysis decided the checker and certified it for
   the engine's lateness.  [commuting] holds both orders of each
   certified commuting pair.  [decided_at] is meaningful only while the
   verdict is decided: the timestamp of the deciding step (or the
   missed deadline), i.e. the point the watermark must pass for the
   verdict to settle.  [touched] and [pending] mark membership of the
   engine lists of the same names. *)
type chk = {
  label : string;
  timed : bool;
  certified : bool;
  cert_decided : bool;
  commuting : unit Pairs.t;
  mutable decided_at : int;
  mutable notified : Backend.verdict;
  mutable settled : bool;
  mutable touched : bool;
  mutable pending : bool;
}

(* Flight-recorder categories on the ooo track: the rollback-and-replay
   span (end argument: journalled events re-stepped), plus instants for
   certificate commute hits (arg: event time) and speculative-violation
   retractions (arg: checker index). *)
type trc = {
  tr : Tr.t;
  tr_replay : Tr.cat;
  tr_commute : Tr.cat;
  tr_retract : Tr.cat;
}

type t = {
  k : int;
  eng : Flat.t;
  views : Backend.t array;  (** verdict rendering *)
  chks : chk array;
  row : int array;  (** gid -> checkers subscribed to it *)
  seen : int array;
      (** gid -> the late event that last listed it in a replay window *)
  journal : Journal.t;  (** events stamped at or after the watermark *)
  frontier : Flat.t;
      (** the same suite, stepped with every journalled event once the
          watermark passes it, deadlines fired up to the watermark: the
          state a rollback restores from *)
  frontier_decided : int array;  (** the frontier's [decided_at] *)
  mutable frontier_clock : int;  (** time of the event the frontier steps *)
  cert : Robust.certificate;
  trc : trc option;
  notice : notice -> unit;
  mutable clock : int;  (** time of the event being stepped *)
  mutable lates : int;  (** stamp of the late event in hand, for [seen] *)
  mutable touched : int list;
      (** checkers whose verdict may have moved since the notice scan:
          decided by a step or deadline, or restored by a rollback *)
  mutable pending : int list;  (** decided, not yet settled *)
  mutable steps : int;
  mutable max_seen : int;
  mutable finalized : bool;
  mutable applied : int;
  mutable late : int;
  mutable commute_hits : int;
  mutable rollbacks : int;
  mutable replayed : int;
  mutable settled_events : int;
  mutable dropped_late : int;
  mutable max_journal : int;
}

let watermark t = t.max_seen - t.k
let max_seen t = t.max_seen
let journal_depth t = Journal.length t.journal
let certificate t = t.cert
let verdict t i = t.views.(i).Backend.verdict ()
let is_decided t i = Flat.verdict_code t.eng i <> 0

let touch t i =
  let c = t.chks.(i) in
  if not c.touched then begin
    c.touched <- true;
    t.touched <- i :: t.touched
  end

(* The engine's decision hook: every satisfied or violated verdict,
   from a step or a deadline check, passes through here. *)
let on_decision t i =
  t.chks.(i).decided_at <-
    (match verdict t i with
    | Backend.Violated d -> d.Diag.time
    | Backend.Running | Backend.Satisfied -> t.clock);
  touch t i

let step_name t gid ~time =
  t.clock <- time;
  Flat.step_name t.eng ~gid ~time;
  t.steps <- t.steps + t.row.(gid)

(* The frontier's decision hook, [on_decision]'s twin. *)
let on_frontier_decision t i =
  t.frontier_decided.(i) <-
    (match Flat.verdict t.frontier i with
    | Compiled.Violated { time; _ } -> time
    | Compiled.Running | Compiled.Satisfied -> t.frontier_clock)

let hears t i gid = Flat.local_of_gid t.eng i gid >= 0

(* One checker, on the late-event and replay paths. *)
let step_checker t i gid ~time =
  let loc = Flat.local_of_gid t.eng i gid in
  if loc >= 0 then begin
    t.clock <- time;
    Flat.step_local t.eng i loc ~time;
    t.steps <- t.steps + 1
  end

(* Fire [i]'s armed deadline [dl] if [dl + 1 <= upto], at its exact
   expiry instant — the same schedule the buffered kernel's timeout
   wheel produces, which is what makes replayed diagnostics identical
   to the in-order ones.  A fired deadline decides the checker, so
   there is at most one. *)
let fire t i ~upto =
  let dl = Flat.next_deadline_checker t.eng i in
  if dl >= 0 && dl + 1 <= upto then Flat.check_time_checker t.eng i ~now:(dl + 1)

(* Hand every journalled event the watermark has passed to the
   frontier, under the same deadline schedule the live engine ran, then
   fire the frontier's deadlines up to the watermark: no admissible late
   event (stamped at or after it) can refute those.  The journal keeps
   only what a late event could still land among. *)
let advance_frontier t =
  let wm = watermark t in
  Journal.pop_before t.journal ~time:wm (fun gid time ->
      Flat.fire_due t.frontier ~upto:time;
      t.frontier_clock <- time;
      Flat.step_name t.frontier ~gid ~time);
  Flat.fire_due t.frontier ~upto:wm

let note_journal_depth t =
  t.max_journal <- max t.max_journal (Journal.length t.journal)

(* Diff each touched checker's live verdict against the last one pushed
   to the notice callback, in suite order.  Rollbacks surface here as
   retractions.  A decided, unsettled checker joins [pending]. *)
let notice_scan t =
  match t.touched with
  | [] -> ()
  | touched ->
      t.touched <- [];
      let wm = watermark t in
      List.iter
        (fun i ->
          let c = t.chks.(i) in
          c.touched <- false;
          let v = verdict t i in
          if v <> c.notified then begin
            (match c.notified with
            | Backend.Violated _ ->
                (match t.trc with
                | Some tc -> Tr.emit tc.tr tc.tr_retract Tr.Instant i
                | None -> ());
                t.notice (Retracted { index = i; label = c.label })
            | Backend.Running | Backend.Satisfied -> ());
            (match v with
            | Backend.Violated d ->
                t.notice
                  (Violation
                     {
                       index = i;
                       label = c.label;
                       violation = d;
                       settled = t.finalized || c.decided_at < wm;
                     })
            | Backend.Running | Backend.Satisfied -> ());
            c.notified <- v
          end;
          if v <> Backend.Running && (not c.settled) && not c.pending then begin
            c.pending <- true;
            t.pending <- i :: t.pending
          end)
        (List.sort compare touched)

let settle t i =
  let c = t.chks.(i) in
  c.settled <- true;
  t.settled_events <- t.settled_events + 1;
  t.notice (Settled { index = i; label = c.label; verdict = verdict t i })

(* A decided verdict settles once the watermark strictly passes its
   decision point: every event that could still arrive is stamped at or
   after the watermark, hence after the decision.  Checkers a rollback
   made undecided leave [pending] too. *)
let leaves t wm i = t.chks.(i).decided_at < wm || not (is_decided t i)

(* [List.exists (leaves t wm)], without the closure: [settle_scan] runs
   on every offer. *)
let rec any_leaves t wm = function
  | [] -> false
  | i :: rest -> leaves t wm i || any_leaves t wm rest

let settle_scan t =
  let wm = watermark t in
  if any_leaves t wm t.pending then begin
    let ripe, stay = List.partition (leaves t wm) t.pending in
    t.pending <- stay;
    List.iter (fun i -> t.chks.(i).pending <- false) ripe;
    List.iter (settle t) (List.sort compare (List.filter (is_decided t) ripe))
  end

let create ?metrics ?(trace = Tr.noop) ?(cert_budget = 20_000) ?notice
    ~lateness entries =
  if lateness < 0 then invalid_arg "Loseq_ooo.Engine.create: negative lateness";
  let eng = Flat.compile entries in
  let names = Array.length (Flat.names eng) in
  (* every name of a pattern is interned *)
  let gid n = Option.get (Flat.gid_of_name eng n) in
  let cert = Robust.certificate ~budget:cert_budget entries in
  let chks =
    Array.of_list
      (List.map2
         (fun (label, p) (ce : Robust.entry) ->
           let commuting = Pairs.create 16 in
           List.iter
             (fun (a, b) ->
               Pairs.replace commuting ((gid a * names) + gid b) ();
               Pairs.replace commuting ((gid b * names) + gid a) ())
             ce.Robust.commuting;
           {
             label;
             timed =
               (match p with Pattern.Timed _ -> true | Pattern.Antecedent _ -> false);
             certified =
               ce.Robust.decided
               && Robust.compare_bound ce.Robust.bound (Robust.Finite lateness)
                  >= 0;
             cert_decided = ce.Robust.decided;
             commuting;
             decided_at = -1;
             notified = Backend.Running;
             settled = false;
             touched = false;
             pending = false;
           })
         entries cert.Robust.entries)
  in
  let row = Array.make names 0 in
  Array.iteri
    (fun i _ ->
      Name.Set.iter
        (fun n -> row.(gid n) <- row.(gid n) + 1)
        (Flat.alphabet eng i))
    chks;
  let t =
    {
      k = lateness;
      eng;
      views = Backend.flat_engine_views eng;
      chks;
      row;
      seen = Array.make names 0;
      journal = Journal.create ();
      frontier = Flat.compile entries;
      frontier_decided = Array.make (Array.length chks) (-1);
      frontier_clock = 0;
      cert;
      trc =
        (if Tr.is_live trace then
           Some
             {
               tr = trace;
               tr_replay = Tr.intern trace ~track:"ooo" "rollback_replay";
               tr_commute = Tr.intern trace ~track:"ooo" "commute_hit";
               tr_retract = Tr.intern trace ~track:"ooo" "retraction";
             }
         else None);
      notice = Option.value notice ~default:(fun _ -> ());
      clock = 0;
      lates = 0;
      touched = [];
      pending = [];
      steps = 0;
      max_seen = -1;
      finalized = false;
      applied = 0;
      late = 0;
      commute_hits = 0;
      rollbacks = 0;
      replayed = 0;
      settled_events = 0;
      dropped_late = 0;
      max_journal = 0;
    }
  in
  Flat.set_notify eng (Some (on_decision t));
  Flat.set_notify t.frontier (Some (on_frontier_decision t));
  (match metrics with
  | None -> ()
  | Some m ->
      let counter ?labels name help = Obs.counter m ~name ~help ?labels () in
      let gauge name help = Obs.gauge m ~name ~help () in
      let c_roll = counter "loseq_ooo_rollbacks_total" "Speculation rollbacks" in
      let c_repl =
        counter "loseq_ooo_replayed_events_total"
          "Journalled events re-stepped during rollbacks"
      in
      let c_hits =
        counter "loseq_ooo_commute_hits_total"
          "Late events committed in place by the certificate fast path"
      in
      let c_late = counter "loseq_ooo_late_events_total" "Admissible late events" in
      let c_settled = counter "loseq_ooo_settled_total" "Verdict settlements" in
      let c_dropped =
        counter "loseq_ooo_dropped_late_total"
          "Events beyond the lateness bound, dropped"
      in
      (* [Hub.host_flat]'s convention: an engine-stepped event counts
         its dispatch row length. *)
      let c_steps =
        counter ~labels:[ ("backend", "flat") ] "loseq_backend_steps_total"
          "Monitor steps executed, by backend flavor"
      in
      let g_depth = gauge "loseq_ooo_journal_depth" "Live rollback-journal events" in
      let g_wm = gauge "loseq_ooo_watermark" "Settlement watermark (max_seen - K)" in
      Obs.on_collect m (fun () ->
          Obs.set_counter c_roll t.rollbacks;
          Obs.set_counter c_repl t.replayed;
          Obs.set_counter c_hits t.commute_hits;
          Obs.set_counter c_late t.late;
          Obs.set_counter c_settled t.settled_events;
          Obs.set_counter c_dropped t.dropped_late;
          Obs.set_counter c_steps t.steps;
          Obs.set g_depth (Journal.length t.journal);
          Obs.set g_wm (watermark t)));
  t

let gid t name =
  match Flat.gid_of_name t.eng name with Some g -> g | None -> -1

(* The certificate fast path: may a late event of [gid] commit in place
   for checker [i], given the distinct gids [suffix] of the journal
   events it would jump over?  See the soundness notes in the
   interface. *)
let commits_in_place t i gid suffix =
  let c = t.chks.(i) in
  let names = Array.length t.row in
  c.settled
  || (not (hears t i gid))
  || c.certified
  || (not c.timed) && c.cert_decided
     && List.for_all
          (fun m ->
            m = gid
            || (not (hears t i m))
            || Pairs.mem c.commuting ((gid * names) + m))
          suffix

let offer_in_order t gid ~time =
  Flat.fire_due t.eng ~upto:time;
  if gid >= 0 then begin
    step_name t gid ~time;
    Journal.append t.journal ~gid ~time;
    note_journal_depth t
  end;
  if time > t.max_seen then begin
    t.max_seen <- time;
    advance_frontier t
  end;
  t.applied <- t.applied + 1;
  `Applied

let commute_hit t ~time =
  t.commute_hits <- t.commute_hits + 1;
  match t.trc with
  | Some c -> Tr.emit c.tr c.tr_commute Tr.Instant time
  | None -> ()

(* The distinct gids of the journal from position [q] on: the names a
   late event inserted at [q] would jump over. *)
let window_gids t q =
  t.lates <- t.lates + 1;
  let suffix = ref [] in
  for p = q to Journal.length t.journal - 1 do
    let g = Journal.gid t.journal p in
    if t.seen.(g) <> t.lates then begin
      t.seen.(g) <- t.lates;
      suffix := g :: !suffix
    end
  done;
  !suffix

let offer_late t gid ~time =
  t.late <- t.late + 1;
  if gid < 0 then begin
    (* Foreign to every checker: nothing to step, nothing to replay
       (deadline firing is driven by timestamps already covered by
       max_seen, not by the event itself). *)
    commute_hit t ~time;
    `Applied
  end
  else begin
    let q = Journal.insertion_point t.journal ~time in
    let suffix = window_gids t q in
    (* Checkers that must roll back, and those that take the late
       event in place, both in suite order. *)
    let affected = ref [] and in_place = ref [] in
    for i = Array.length t.chks - 1 downto 0 do
      if not (commits_in_place t i gid suffix) then affected := i :: !affected
      else if hears t i gid then in_place := i :: !in_place
    done;
    match !affected with
    | [] ->
        step_name t gid ~time;
        Journal.insert t.journal ~at:q ~gid ~time;
        note_journal_depth t;
        commute_hit t ~time;
        `Commuted
    | affected ->
        (* The whole repair is one span on the ooo track: restore from
           the frontier, re-step the journal, catch up. *)
        (match t.trc with
        | Some c ->
            Tr.emit c.tr c.tr_replay Tr.Span_begin (List.length affected)
        | None -> ());
        List.iter
          (fun i ->
            Flat.copy_checker ~src:t.frontier t.eng i;
            t.chks.(i).decided_at <- t.frontier_decided.(i);
            touch t i)
          affected;
        List.iter (fun i -> step_checker t i gid ~time) !in_place;
        Journal.insert t.journal ~at:q ~gid ~time;
        note_journal_depth t;
        let count = Journal.length t.journal in
        for p = 0 to count - 1 do
          let g = Journal.gid t.journal p and tm = Journal.time t.journal p in
          List.iter
            (fun i ->
              fire t i ~upto:tm;
              step_checker t i g ~time:tm)
            affected
        done;
        (* Catch the replayed checkers back up to the present: the
           in-order path had fired their deadlines up to max_seen. *)
        List.iter (fun i -> fire t i ~upto:t.max_seen) affected;
        t.rollbacks <- t.rollbacks + 1;
        t.replayed <- t.replayed + count;
        (match t.trc with
        | Some c -> Tr.emit c.tr c.tr_replay Tr.Span_end count
        | None -> ());
        `Replayed count
  end

let offer_gid t ~gid ~time =
  if t.finalized then invalid_arg "Loseq_ooo.Engine.offer: already finalized";
  if gid < -1 || gid >= Array.length t.row then
    invalid_arg "Loseq_ooo.Engine.offer_gid: not a gid";
  let res =
    if time >= t.max_seen then offer_in_order t gid ~time
    else if time < t.max_seen - t.k then begin
      t.dropped_late <- t.dropped_late + 1;
      `Dropped_late
    end
    else offer_late t gid ~time
  in
  (match res with
  | `Dropped_late -> ()
  | `Applied | `Commuted | `Replayed _ ->
      notice_scan t;
      settle_scan t);
  res

let offer t (e : Trace.event) = offer_gid t ~gid:(gid t e.name) ~time:e.time

let finalize ?final_time t =
  if not t.finalized then begin
    let ft = max 0 (max t.max_seen (Option.value final_time ~default:0)) in
    Flat.fire_due t.eng ~upto:ft;
    t.clock <- ft;
    Flat.finalize t.eng ~now:ft;
    t.finalized <- true;
    notice_scan t;
    Array.iteri (fun i c -> if not c.settled then settle t i) t.chks
  end

let report t = Array.to_list (Array.mapi (fun i c -> (c.label, verdict t i)) t.chks)

let report_strings t =
  List.map (fun (_, v) -> Backend.verdict_to_string v) (report t)

let tri t =
  Array.mapi
    (fun i c -> Backend.tri_of_verdict ~settled:c.settled (verdict t i))
    t.chks

let settled t = Array.map (fun c -> c.settled) t.chks

let stats t =
  {
    applied = t.applied;
    late = t.late;
    commute_hits = t.commute_hits;
    rollbacks = t.rollbacks;
    replayed = t.replayed;
    settled_events = t.settled_events;
    dropped_late = t.dropped_late;
    max_journal = t.max_journal;
  }
