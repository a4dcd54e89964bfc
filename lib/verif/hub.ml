open Loseq_core
open Loseq_sim

(* ---- merged deadline wheel -------------------------------------------- *)

(* A binary min-heap of (deadline, entry) with lazy invalidation: an
   entry records the deadline it is currently armed for; stale heap
   items (the entry re-armed or disarmed since the push) are dropped
   when they surface.  One kernel timeout is kept scheduled at the heap
   minimum — however many timed checkers the hub hosts.  Equal deadlines
   fire in hosting order ([seq]), so the order of same-instant misses
   does not depend on the heap's history — which differs between
   per-checker and engine-direct hosting. *)

type entry = {
  checker : Checker.t;
  seq : int;  (** hosting order *)
  mutable armed : int;  (** -1 = unarmed *)
}

module Wheel = struct
  type t = {
    mutable heap : (int * entry) array;
    mutable len : int;
  }

  let create () = { heap = [||]; len = 0 }

  let swap h i j =
    let tmp = h.heap.(i) in
    h.heap.(i) <- h.heap.(j);
    h.heap.(j) <- tmp

  let less (d, a) (d', b) = d < d' || (d = d' && a.seq < b.seq)

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h.heap.(i) h.heap.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && less h.heap.(l) h.heap.(!smallest) then smallest := l;
    if r < h.len && less h.heap.(r) h.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h deadline entry =
    if h.len = Array.length h.heap then begin
      (* Grow, filling fresh slots with the pushed item (never read
         beyond [len]). *)
      let grown = Array.make (max 8 (2 * h.len)) (deadline, entry) in
      Array.blit h.heap 0 grown 0 h.len;
      h.heap <- grown
    end;
    h.heap.(h.len) <- (deadline, entry);
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.heap.(0) in
      h.len <- h.len - 1;
      h.heap.(0) <- h.heap.(h.len);
      sift_down h 0;
      Some top
    end

  (* Smallest non-stale deadline, dropping stale items on the way. *)
  let rec min_live h =
    if h.len = 0 then None
    else
      let deadline, entry = h.heap.(0) in
      if entry.armed = deadline then Some deadline
      else begin
        ignore (pop h);
        min_live h
      end
end

(* ---- telemetry --------------------------------------------------------- *)

(* Present only when the hub was created with a live metrics sink; the
   default (noop) hub carries [None] and pays one predictable branch per
   delivery.  Dispatch latency is sampled (one delivery in 64) so the
   clock reads stay far below the paper's per-event monitor cost. *)
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace

(* Flight-recorder categories, interned once at hub creation.  Dispatch
   spans ride the latency-sampled path and reuse its two clock reads
   (emit_at with the already-read stamps), so tracing adds zero clock
   reads to the event path; deadline firings and wheel-depth samples
   are rare enough to stamp directly. *)
type trc = {
  tr : Tr.t;
  tr_dispatch : Tr.cat;
  tr_firing : Tr.cat;
  tr_wheel : Tr.cat;
}

let make_trc trace =
  {
    tr = trace;
    tr_dispatch = Tr.intern trace ~track:"hub" "dispatch";
    tr_firing = Tr.intern trace ~track:"hub" "deadline_fire";
    tr_wheel = Tr.intern trace ~track:"hub" "wheel_depth";
  }

(* The sampling mask: 1-in-[rate] with [rate] rounded up to a power of
   two, so the phase test stays one [land]. *)
let sample_mask rate =
  if rate < 1 then invalid_arg "Hub: latency_sample_rate must be >= 1";
  let rec up k = if k >= rate then k else up (k * 2) in
  up 1 - 1

let default_sample_rate = 64

type obs = {
  metrics : Obs.t;
  dispatched : Obs.counter;  (* events entering the hub's tap *)
  satisfied : Obs.counter;
  violated : Obs.counter;
  wheel_depth : Obs.gauge;
  firings : Obs.counter;
  dispatch_ns : Obs.histogram;
}

let latency_buckets =
  [| 100; 250; 500; 1_000; 2_500; 5_000; 10_000; 50_000; 250_000; 1_000_000 |]

let make_obs metrics tap =
  let dispatched =
    Obs.counter metrics ~name:"loseq_events_dispatched_total"
      ~help:"Events entering the hub (one per tap emission)" ()
  in
  (* The tap already counts every emission (including names no checker
     listens to), so the hub mirrors it at read time instead of paying
     an extra subscription on every event. *)
  Obs.on_collect metrics (fun () -> Obs.set_counter dispatched (Tap.count tap));
  {
    metrics;
    dispatched;
    satisfied =
      Obs.counter metrics ~name:"loseq_checker_transitions_total"
        ~help:"Checker verdict transitions"
        ~labels:[ ("verdict", "satisfied") ]
        ();
    violated =
      Obs.counter metrics ~name:"loseq_checker_transitions_total"
        ~help:"Checker verdict transitions"
        ~labels:[ ("verdict", "violated") ]
        ();
    wheel_depth =
      Obs.gauge metrics ~name:"loseq_hub_wheel_depth"
        ~help:"Deadline-wheel heap depth (live + stale entries)" ();
    firings =
      Obs.counter metrics ~name:"loseq_hub_deadline_firings_total"
        ~help:"Deadline expiries polled through the merged wheel" ();
    dispatch_ns =
      Obs.histogram metrics ~name:"loseq_hub_dispatch_ns"
        ~help:"Per-dispatch latency in nanoseconds (sampled 1 in 64)"
        ~buckets:latency_buckets ();
  }

type t = {
  tap : Tap.t;
  mutable entries_rev : entry list;
  mutable hosted : int;  (** entries so far: the next [seq] *)
  wheel : Wheel.t;
  mutable scheduled : (int * Kernel.handle) option;
      (* deadline the kernel timeout is parked at *)
  obs : obs option;
  trc : trc option;
  mutable engines : Loseq_core.Flat.t list;  (** hosted by [host_flat] *)
}

let create ?(metrics = Obs.noop) ?(trace = Tr.noop) tap =
  {
    tap;
    entries_rev = [];
    hosted = 0;
    wheel = Wheel.create ();
    scheduled = None;
    obs = (if Obs.is_live metrics then Some (make_obs metrics tap) else None);
    trc = (if Tr.is_live trace then Some (make_trc trace) else None);
    engines = [];
  }

let tap t = t.tap

let engine t =
  match t.engines with
  | [ eng ] when Loseq_core.Flat.size eng = List.length t.entries_rev -> Some eng
  | _ -> None
let checkers t = List.rev_map (fun e -> e.checker) t.entries_rev
let size t = List.length t.entries_rev

(* Keep the single kernel timeout parked at the wheel's live minimum. *)
let rec settle t =
  match Wheel.min_live t.wheel with
  | None -> (
      match t.scheduled with
      | Some (_, handle) ->
          Kernel.cancel handle;
          t.scheduled <- None
      | None -> ())
  | Some deadline -> (
      match t.scheduled with
      | Some (at, _) when at = deadline -> ()
      | Some (_, handle) ->
          Kernel.cancel handle;
          t.scheduled <- None;
          settle t
      | None ->
          let kernel = Tap.kernel t.tap in
          let at = Time.ps (deadline + 1) in
          if Time.( < ) (Kernel.now kernel) at then
            t.scheduled <-
              Some (deadline, Kernel.schedule_at kernel ~at (fun () -> fire t))
          else begin
            (* Already past: expire it now rather than scheduling in the
               past. *)
            expire t;
            settle t
          end)

(* Poll every armed checker whose deadline has elapsed ([check_time]
   reports a miss when [now > deadline]); stale heap items are dropped,
   live future items are put back untouched. *)
and expire t =
  let now = Tap.now_ps t.tap in
  let rec drain () =
    match Wheel.pop t.wheel with
    | None -> ()
    | Some (d, entry) ->
        if entry.armed <> d then drain () (* stale *)
        else if d >= now then Wheel.push t.wheel d entry
        else begin
          entry.armed <- -1;
          (match t.obs with
          | Some o -> Obs.incr o.firings
          | None -> ());
          (match t.trc with
          | Some c -> Tr.emit c.tr c.tr_firing Tr.Instant d
          | None -> ());
          Checker.poll entry.checker ~now;
          rearm t entry;
          drain ()
        end
  in
  drain ()

and fire t =
  t.scheduled <- None;
  expire t;
  settle t;
  (match t.trc with
  | Some c -> Tr.emit c.tr c.tr_wheel Tr.Count t.wheel.Wheel.len
  | None -> ());
  match t.obs with
  | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
  | None -> ()

and rearm t entry =
  match Checker.next_deadline entry.checker with
  | None -> entry.armed <- -1
  | Some deadline ->
      if entry.armed <> deadline then begin
        entry.armed <- deadline;
        Wheel.push t.wheel deadline entry
      end

let after_delivery t entry =
  rearm t entry;
  settle t

(* One sampled dispatch: [work] between two monotonic-ns clock reads
   (immune to NTP steps, fine enough for the sub-microsecond buckets)
   that feed the latency histogram and the flight recorder's dispatch
   span.  The span begin goes in before the work so records the work
   emits (deadline firings) nest inside it in ring order — the ring
   must stay time-sorted. *)
let sampled_dispatch t work =
  let t0 = Monotonic_clock.now () in
  (match t.trc with
  | Some c ->
      Tr.emit_at c.tr ~ts_ns:(Int64.to_int t0) c.tr_dispatch Tr.Span_begin 0
  | None -> ());
  work ();
  let t1 = Monotonic_clock.now () in
  let ns = Int64.to_int (Int64.sub t1 t0) in
  (match t.obs with
  | Some o ->
      Obs.set o.wheel_depth t.wheel.Wheel.len;
      Obs.observe o.dispatch_ns ns
  | None -> ());
  match t.trc with
  | Some c -> Tr.emit_at c.tr ~ts_ns:(Int64.to_int t1) c.tr_dispatch Tr.Span_end ns
  | None -> ()

(* With a live sink, every hosted checker contributes to the transition
   counters: satisfied rounds through the step-path transition hook,
   violations through the once-per-checker violation hook (which also
   covers deadline-driven misses the step hook never sees). *)
let observe_checker o checker =
  Checker.on_transition checker (fun ~before ~after ->
      match (before, after) with
      | Backend.Running, Backend.Satisfied -> Obs.incr o.satisfied
      | _, (Backend.Running | Backend.Satisfied | Backend.Violated _) -> ());
  Checker.on_violation checker (fun _ -> Obs.incr o.violated)

(* Host a detached checker, one subscription per alphabet name; the
   reference monitors take events, so the delivery builds one from the
   subscribed name and the time. *)
let host ?(latency_sample_rate = default_sample_rate) t checker =
  let mask = sample_mask latency_sample_rate in
  let entry = { checker; seq = t.hosted; armed = -1 } in
  t.hosted <- t.hosted + 1;
  t.entries_rev <- entry :: t.entries_rev;
  let backend = Checker.backend checker in
  (match t.obs with
  | None -> ()
  | Some o ->
      observe_checker o checker;
      (* Hosted monitor steps are exactly the deliveries this hub
         routes, and the checker already counts those in [events_seen]:
         mirror it into the per-flavor family as a delta at read time
         (delta, so other writers of the family keep their share). *)
      let steps =
        Obs.counter o.metrics ~name:"loseq_backend_steps_total"
          ~help:"Monitor steps executed, by backend flavor"
          ~labels:[ ("backend", backend.Backend.label) ]
          ()
      in
      let last = ref 0 in
      Obs.on_collect o.metrics (fun () ->
          let seen = Checker.events_seen checker in
          Obs.add steps (seen - !last);
          last := seen));
  Name.Set.iter
    (fun n ->
      let deliver time =
        Checker.deliver checker { Trace.name = n; time };
        after_delivery t entry
      in
      match (t.obs, t.trc) with
      | None, None -> Tap.subscribe_name t.tap n deliver
      | obs, _ ->
          (* The just-bumped deliveries count doubles as the 1-in-N
             latency sampling phase — no separate phase cell (a local
             cell stands in when only the flight recorder is live). *)
          let sampled =
            match obs with
            | Some o ->
                let deliveries =
                  Obs.counter o.metrics ~name:"loseq_hub_deliveries_total"
                    ~help:"Routed checker deliveries, by event name"
                    ~labels:[ ("name", Name.to_string n) ]
                    ()
                in
                fun () ->
                  Obs.incr deliveries;
                  Obs.counter_value deliveries land mask = 0
            | None ->
                let phase = ref 0 in
                fun () ->
                  incr phase;
                  !phase land mask = 0
          in
          Tap.subscribe_name t.tap n (fun time ->
              if sampled () then sampled_dispatch t (fun () -> deliver time)
              else deliver time))
    backend.Backend.alphabet;
  after_delivery t entry;
  match t.obs with
  | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
  | None -> ()

(* ---- engine-direct hosting --------------------------------------------- *)

(* Host a whole [Flat] engine: one tap subscription per interned name
   steps the engine's CSR dispatch row directly — no per-checker
   closure chain, no per-delivery checker bookkeeping.  Checker views
   exist only for reports, finalization and hooks; verdict decisions
   reach them through the engine's notify callback, which also counts
   the checker's completed rounds.  A checker's deliveries are the
   emissions of its alphabet names, so one count per name (bumped once
   per event, whatever the row length) yields its [events_seen], its
   name coverage and the delivery/step counters as read-time sums.  The
   deadline wheel re-arms only the checkers the engine marked, so the
   steady-state event path is count + step + two flag tests. *)
let host_flat ?(latency_sample_rate = default_sample_rate) t eng views =
  let mask = sample_mask latency_sample_rate in
  let module Flat = Loseq_core.Flat in
  let names = Flat.names eng in
  let emitted = Array.make (Array.length names) 0 in
  let row = Array.make (Array.length names) 0 in
  let gid nm = Option.get (Flat.gid_of_name eng nm) in
  let count nm = emitted.(gid nm) in
  let checkers =
    Array.mapi
      (fun ck view ->
        Name.Set.iter
          (fun nm -> row.(gid nm) <- row.(gid nm) + 1)
          (Flat.alphabet eng ck);
        Checker.make ~name:(Flat.label eng ck)
          ~now:(fun () -> Tap.now_ps t.tap)
          ~counts:count view)
      views
  in
  let entries =
    Array.mapi
      (fun ck checker -> { checker; seq = t.hosted + ck; armed = -1 })
      checkers
  in
  t.hosted <- t.hosted + Array.length entries;
  Array.iter (fun e -> t.entries_rev <- e :: t.entries_rev) entries;
  t.engines <- eng :: t.engines;
  (match t.obs with
  | None -> ()
  | Some o ->
      Array.iter (observe_checker o) checkers;
      (* Deltas of this process's emissions times the row length: the
         same counts the routed path makes one delivery at a time, and
         a checkpoint restore (which moves [events_seen], not
         [emitted]) needs no re-baselining. *)
      let deliveries =
        Array.map
          (fun nm ->
            Obs.counter o.metrics ~name:"loseq_hub_deliveries_total"
              ~help:"Routed checker deliveries, by event name"
              ~labels:[ ("name", Name.to_string nm) ]
              ())
          names
      in
      let steps =
        Obs.counter o.metrics ~name:"loseq_backend_steps_total"
          ~help:"Monitor steps executed, by backend flavor"
          ~labels:[ ("backend", "flat") ]
          ()
      in
      (* Recognizer touches, also as a delta: one hub may host several
         engines into the one counter. *)
      let touches =
        Obs.counter o.metrics ~name:"loseq_flat_recognizer_steps_total"
          ~help:"Flat-engine recognizer transitions stepped" ()
      in
      let last = Array.make (Array.length names) 0 in
      let last_touches = ref (Flat.recognizer_steps eng) in
      Obs.on_collect o.metrics (fun () ->
          Array.iteri
            (fun g counter ->
              let d = (emitted.(g) - last.(g)) * row.(g) in
              last.(g) <- emitted.(g);
              Obs.add counter d;
              Obs.add steps d)
            deliveries;
          let n = Flat.recognizer_steps eng in
          Obs.add touches (n - !last_touches);
          last_touches := n));
  Flat.set_notify eng
    (Some
       (fun ck ->
         (* code 1 is a Running -> Satisfied decision: a round *)
         if Flat.verdict_code eng ck = 1 then begin
           Coverage.record_round (Checker.coverage checkers.(ck));
           match t.obs with Some o -> Obs.incr o.satisfied | None -> ()
         end;
         (* violations reach the hooks (and the violated counter set up
            by [observe_checker]) through the checker, exactly once *)
         Checker.sync_external checkers.(ck)));
  let resettle () =
    Flat.drain_deadlines eng (fun ck -> rearm t entries.(ck));
    settle t;
    (match t.trc with
    | Some c -> Tr.emit c.tr c.tr_wheel Tr.Count t.wheel.Wheel.len
    | None -> ());
    match t.obs with
    | Some o -> Obs.set o.wheel_depth t.wheel.Wheel.len
    | None -> ()
  in
  (* One handler per name: count, then step.  The per-name emission
     count doubles as the 1-in-N sampling phase when a registry or a
     ring is live. *)
  let observed = Option.is_some t.obs || Option.is_some t.trc in
  let step gid time =
    Flat.step_name eng ~gid ~time;
    if Flat.deadlines_dirty eng then resettle ()
  in
  Array.iteri
    (fun gid nm ->
      Tap.subscribe_name t.tap nm (fun time ->
          let n = emitted.(gid) + 1 in
          emitted.(gid) <- n;
          if observed && n land mask = 0 then
            sampled_dispatch t (fun () -> step gid time)
          else step gid time))
    names;
  Array.iter (fun entry -> rearm t entry) entries;
  resettle ();
  Array.to_list checkers

(* Views of one engine compiled over exactly these entries, in entry
   order, are stepped engine-direct; any other views are hosted one
   checker each. *)
let host_suite ?latency_sample_rate t backend entries =
  let views = backend entries in
  match if Array.length views = 0 then None else views.(0).Backend.engine with
  | Some eng
    when Array.for_all
           (fun v -> Option.equal ( == ) v.Backend.engine (Some eng))
           views
         && List.map fst entries = List.init (Flat.size eng) (Flat.label eng)
    ->
      host_flat ?latency_sample_rate t eng views
  | Some _ | None ->
      List.mapi
        (fun i (label, _) ->
          let checker =
            Checker.make ~name:label ~now:(fun () -> Tap.now_ps t.tap) views.(i)
          in
          host ?latency_sample_rate t checker;
          checker)
        entries

let add ?(backend = Backend.flat_views) ?name ?latency_sample_rate t pattern =
  let name = Option.value name ~default:(Pattern.to_string pattern) in
  List.hd (host_suite ?latency_sample_rate t backend [ (name, pattern) ])

let on_violation t hook =
  List.iter
    (fun c -> Checker.on_violation c (fun v -> hook c v))
    (checkers t)

(* After an external state restore: every entry's armed deadline is
   stale — re-read next_deadline, re-park the wheel and the kernel
   timeout.  [settle] expires deadlines already in the past. *)
let resync t =
  List.iter
    (fun entry ->
      entry.armed <- -1;
      rearm t entry)
    (List.rev t.entries_rev);
  settle t

let wheel_consistent t =
  let in_heap d entry =
    let rec at i =
      i < t.wheel.Wheel.len
      &&
      let d', e = t.wheel.Wheel.heap.(i) in
      (d' = d && e == entry) || at (i + 1)
    in
    at 0
  in
  List.for_all
    (fun entry ->
      match Checker.next_deadline entry.checker with
      | None -> entry.armed = -1
      | Some d -> entry.armed = d && in_heap d entry)
    t.entries_rev

let finalize t = List.iter (fun c -> ignore (Checker.finalize c)) (checkers t)

let report t =
  let report = Report.create () in
  List.iter (Report.add report) (checkers t);
  report

let all_passed t = List.for_all Checker.passed (checkers t)
