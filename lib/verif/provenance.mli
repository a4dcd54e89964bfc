(** Verdict provenance: the minimal causal chain behind a Fail.

    A verdict record saying [recognition_deadline: Fail] answers
    {e what}; provenance answers {e why}: which events advanced the
    recognizer into the failing configuration, which deadline fired,
    and when.  The recorder keeps, per suite entry, a bounded ring of
    the most recent events in that entry's alphabet (everything the
    recognizer saw); when the entry's checker reports a violation the
    ring is frozen at that instant together with the diagnostic.  The
    chain is then
    {e minimized} by greedy delta-debugging — drop one event at a
    time, replay the candidate on one monitor reset between
    candidates, keep the drop when the entry still fails with the
    recorded violation, repeat until nothing drops — so the reported
    chain is 1-minimal: removing any single event makes that failure
    disappear.

    Minimized chains are attached to failed verdict NDJSON records by
    [serve] and replayed standalone by [loseq explain-verdict] (the
    CI gate replays each chain on the compiled backend {e and} on the
    structural monitor, and requires the same Fail). *)

open Loseq_core

type link = { time : int; name : Name.t }
(** One chain element: an event that reached the recognizer. *)

(** {1 The recorder} *)

type t

val create : ?depth:int -> Tap.t -> Suite.t -> t
(** Attach a recorder to [tap]: one per-name subscription for each
    name of the suite's alphabets pushes the event into every entry
    ring listening to it (default [depth] 64, rounded up to a power of
    two).  A ring slot is two ints, the time and the name's index in
    the entry's alphabet, so a push stores no pointer.  Works under any
    hosting backend — capture is tap-level, so flat hosting (where
    checkers never see individual deliveries) records identically. *)

val create_detached : ?depth:int -> Suite.t -> t
(** A recorder with no tap subscriptions — for hosts that do not route
    through a tap (the speculative engine): feed it with
    {!record}. *)

type route
(** Everything one name feeds: the rings listening to it and the
    name's index in each. *)

val route : t -> Name.t -> route
(** The route a {!create} subscription takes for a name — empty for a
    name outside every alphabet.  A host resolves each name once. *)

val record : t -> route -> time:int -> unit
(** Manually feed one event into every ring on [route]: two int
    writes per ring, no name lookup.  Only needed after
    {!create_detached}. *)

val note_violation : t -> label:string -> Diag.violation -> unit
(** Freeze [label]'s ring at the violation instant: events after that
    time no longer enter it, so the captured chain survives later
    traffic.  The cut is by time, not an eager snapshot — the hook
    fires {e inside} the offending event's tap delivery, and the
    recorder's own subscription (which runs after the checker's) must
    still land that event.  First violation wins.  Unknown labels are
    ignored. *)

val clear_violation : t -> label:string -> unit
(** Withdraw a freeze — the speculative engine retracting a violation
    a late event repaired. *)

val violation_of : t -> string -> Diag.violation option

val seen : t -> (string * int) list
(** Per entry, the number of events observed in its alphabet since
    creation (not bounded by the ring depth) — the measured per-checker
    load {!Loseq_obs.Profile.render} wants, uniform across hosting
    backends because capture is tap-level. *)

val captured : t -> string -> link list
(** [label]'s chain, chronological: cut at the violation instant when
    one was noted, the current ring contents otherwise ([[]] for
    unknown labels). *)

(** {1 Minimization and replay} *)

val replay :
  ?backend:Backend.suite_factory ->
  final_time:int ->
  label:string ->
  Pattern.t ->
  link list ->
  bool
(** Run the entry alone, as a one-entry suite, over the chain
    (chronologically sorted), finalized at [final_time] on [backend]
    (default as {!Suite.check_trace}); [true] when it passes. *)

val minimize :
  ?backend:Backend.suite_factory ->
  ?violation:Diag.violation ->
  final_time:int ->
  label:string ->
  Pattern.t ->
  link list ->
  link list
(** Greedy 1-minimal reduction of a failing chain: each event is
    dropped in turn and the drop kept when the entry still fails at
    [final_time], in passes until one drops nothing.  With [violation]
    (the one recorded, {!violation_of}), "fails" means fails {e the
    same way}: in the same fragment with the same reason (deadline
    reasons by constructor, as their times move with the chain), so the
    chain explains the reported violation and not another one.  [backend]
    (default {!Loseq_core.Backend.flat_views}) is built once and reset
    before each candidate.  A chain that does not fail to begin with
    is returned unchanged.  At most [O(n^2)] replays of at most [n]
    events, with [n] bounded by the recorder depth. *)

(** {1 Rendering} *)

val chain_json : ?violation:Diag.violation -> link list -> Json.t
(** [{"chain":[{"time":..,"name":..},..],"deadline":{..}?,
    "reason":..?,"violation_time":..?}] — the ["deadline"] object
    (started/deadline/now) is present exactly for deadline misses. *)

val chain_of_json : Json.t -> (link list, string) result
(** Parse back what {!chain_json} emitted (the ["chain"] array);
    tolerates the enclosing verdict-record object by looking up
    ["provenance"] first when present. *)
