open Loseq_core
open Loseq_verif
module Kernel = Loseq_sim.Kernel
module Time = Loseq_sim.Time
module Tr = Loseq_obs.Trace

(* Session-level flight-recorder category: the backpressure stall span
   around a forced drain (argument of the end record: events forced
   out to admit the blocked one). *)
type trc = { tr : Tr.t; tr_stall : Tr.cat }

type t = {
  suite : Suite.t;
  kernel : Kernel.t;
  tap : Tap.t;
  hub : Hub.t;
  reorder : Reorder.t;
  lateness : int;
  window : int;
  trc : trc option;
  mutable accepted : int;
  mutable delivered : int;
  mutable forced : int;
}

let create ?metrics ?(trace = Tr.noop) ?backend ?latency_sample_rate
    ?(lateness = 0) ?(window = 1024) suite =
  let kernel = Kernel.create () in
  let tap = Tap.create ~record:false kernel in
  let hub =
    Suite.attach_hub ?metrics ~trace ?backend ?latency_sample_rate tap suite
  in
  {
    suite;
    kernel;
    tap;
    hub;
    reorder = Reorder.create ?metrics ~trace ~capacity:window ~lateness ();
    lateness;
    window;
    trc =
      (if Tr.is_live trace then
         Some { tr = trace; tr_stall = Tr.intern trace ~track:"ingest" "stall" }
       else None);
    accepted = 0;
    delivered = 0;
    forced = 0;
  }

(* Advance the private kernel to the event's timestamp first: the hub's
   merged deadline wheel fires any deadline that elapses on the way, so
   a deadline-only violation is reported between stream events exactly
   as it would be mid-simulation.  [id] is the name's tap id, or -1 for
   a name no checker hears, which then travels as [name]. *)
let deliver t id name ~time =
  let until = Time.ps time in
  if Time.( < ) (Kernel.now t.kernel) until then Kernel.advance t.kernel ~until;
  if id >= 0 then Tap.emit_id t.tap id else Tap.emit_name t.tap name;
  t.delivered <- t.delivered + 1

let deliver_event t (e : Trace.event) =
  deliver t (Tap.lookup t.tap e.name) e.name ~time:e.time

(* The one admission.  [name] is [id]'s name, the tap's own when
   [id] >= 0: the in-order path reads it only for a name no checker
   hears, the reorder path to queue the event. *)
let admit t id name ~time =
  (* In-order fast path: with no reorder margin and nothing buffered an
     admissible event cannot be overtaken, so it skips the heap and
     carries ints only. *)
  if
    t.lateness = 0
    && Reorder.is_empty t.reorder
    && time >= Reorder.floor t.reorder
  then begin
    Reorder.note_delivered t.reorder time;
    deliver t id name ~time;
    t.accepted <- t.accepted + 1;
    `Accepted
  end
  else
    match Reorder.push t.reorder { Trace.name; time } with
    | `Queued ->
        t.accepted <- t.accepted + 1;
        ignore (Reorder.drain t.reorder ~emit:(deliver_event t));
        `Accepted
    | `Dropped_late ->
        t.accepted <- t.accepted + 1;
        `Accepted
    | `Full -> `Blocked

let force_drain t =
  match Reorder.pop_oldest t.reorder with
  | Some e ->
      deliver_event t e;
      t.forced <- t.forced + 1;
      true
  | None -> false

(* [admit], force-draining until accepted. *)
let admit_force t id name ~time =
  match admit t id name ~time with
  | `Accepted -> ()
  | `Blocked ->
      (* Backpressure stall: drain by force until the event fits.  The
         whole stall is one span — opened when the block was detected
         (so anything the drain emits nests inside it), closed when
         admission succeeded, argument the number of events forced
         out. *)
      (match t.trc with
      | Some c -> Tr.emit c.tr c.tr_stall Tr.Span_begin 0
      | None -> ());
      let drained = ref 0 in
      let rec force () =
        ignore (force_drain t);
        incr drained;
        match admit t id name ~time with `Accepted -> () | `Blocked -> force ()
      in
      force ();
      (match t.trc with
      | Some c -> Tr.emit c.tr c.tr_stall Tr.Span_end !drained
      | None -> ())

let resolve t name = Tap.lookup t.tap name

let offer_id t id ~time =
  if id < 0 then invalid_arg "Session.offer_id: not a tap id";
  admit t id (Tap.name t.tap id) ~time

let offer t (e : Trace.event) = admit t (resolve t e.name) e.name ~time:e.time

let offer_force t (e : Trace.event) =
  admit_force t (resolve t e.name) e.name ~time:e.time

(* Each stream id resolves once, at first use; the table grows with
   the ids actually used, to at most twice the largest. *)
let by_stream_id resolve =
  let cache = ref [||] in
  fun sid ->
    let len = Array.length !cache in
    if sid >= len then begin
      let grown = Array.make (max (sid + 1) (max 16 (2 * len))) None in
      Array.blit !cache 0 grown 0 len;
      cache := grown
    end;
    match !cache.(sid) with
    | Some v -> v
    | None ->
        let v = resolve sid in
        !cache.(sid) <- Some v;
        v

let wire t name =
  let id_of = by_stream_id (fun sid -> resolve t (name sid)) in
  fun sid time ->
    let id = id_of sid in
    admit_force t id (if id >= 0 then Tap.name t.tap id else name sid) ~time

let flush t = ignore (Reorder.flush t.reorder ~emit:(deliver_event t))

let now t = Time.to_ps (Kernel.now t.kernel)

let finalize ?final_time t =
  flush t;
  let ft =
    match final_time with
    | Some f -> f
    | None -> max (Reorder.max_seen t.reorder) 0
  in
  let ft = max ft (now t) in
  if Time.( < ) (Kernel.now t.kernel) (Time.ps ft) then
    Kernel.run ~until:(Time.ps ft) t.kernel;
  Hub.finalize t.hub;
  Hub.report t.hub

type stats = {
  accepted : int;
  delivered : int;
  reordered : int;
  dropped_late : int;
  forced : int;
}

let stats (t : t) : stats =
  {
    accepted = t.accepted;
    delivered = t.delivered;
    reordered = Reorder.reordered t.reorder;
    dropped_late = Reorder.dropped_late t.reorder;
    forced = t.forced;
  }

let position (t : t) = t.accepted

let on_violation t hook =
  Hub.on_violation t.hub (fun c v -> hook ~name:(Checker.name c) v)

let all_passed t = Hub.all_passed t.hub
let suite t = t.suite
let hub t = t.hub
let kernel t = t.kernel
let reorder t = t.reorder
let lateness t = t.lateness
let window t = t.window

let restore_counters (t : t) ~accepted ~delivered ~forced =
  t.accepted <- accepted;
  t.delivered <- delivered;
  t.forced <- forced

let reorder_certificate ?(budget = 20_000) t =
  Loseq_analysis.Robust.certificate ~budget
    (List.map
       (fun (e : Suite.entry) -> (e.label, e.pattern))
       (suite t))
