(** Checkpoint/resume for streaming monitor sessions.

    A checkpoint is one JSON document capturing everything a
    {!Session} needs to continue as if it had never stopped: the suite
    identity (source text, match-checked on resume), the session
    parameters, the stream position, the reorder buffer {e as is}
    (pending events are carried, not flushed — flushing would deliver
    them earlier than the uninterrupted run would have), and the exact
    run state of every hosted monitor.

    One version exists: version 2, the entire suite's run state
    as a single base64 {!Loseq_core.Flat} engine blob plus the
    interning table that pins its layout, so capture/restore cost
    stops scaling with checker count.  Capture writes the blob of the
    one flat engine the session's hub steps engine-direct
    ({!Loseq_verif.Hub.engine}, the default
    {!Loseq_core.Backend.flat_views} hosting) and restore loads it back
    into that engine; a session hosted any other way (one checker per
    pattern, e.g. the structural or ViaPSL monitors) is refused on
    both sides with the same message.  Version 1 (one persisted JSON
    state per checker, last written by 1.13.0) is refused with a typed
    error.

    The resume contract is replay-based: the producer re-sends the
    stream from the start and the consumer skips the first
    {!position}-many events — exactly the events the checkpointed
    session had {e accepted} (delivered, buffered or counted
    dropped-late).  Equivalence is property-tested: killing a session
    at any prefix and resuming yields a report whose
    {!Loseq_verif.Report.summary_strings} equals the uninterrupted
    run's. *)

open Loseq_core

val capture : Session.t -> Json.t
(** Version 2 (one engine blob).  Raises [Failure] if the session's
    hub hosts no single flat engine. *)

val restore : Session.t -> Json.t -> (unit, string) result
(** Overwrite a {e fresh} session (no events offered) with a captured
    state.  Fails on schema/version mismatch
    (including a flat blob of an unsupported [blob_version], reported
    as a clear error, not a decode exception), a different suite, a
    non-fresh session, or a hub that hosts no single flat engine.
    On success the session's kernel is advanced to the checkpointed
    time and the hub's deadline wheel is re-armed. *)

val save : path:string -> Session.t -> (int, string) result
(** {!capture} to a file via {!Atomic_file.write} (temporary file,
    fsync, rename).  [Ok n] is the encoded byte size written —
    surfaced in the server's [checkpoint] NDJSON record. *)

val load : path:string -> (Json.t, string) result
(** Read and parse a checkpoint file; an unreadable path (missing, a
    directory, ...) or malformed JSON is an [Error] naming [path]. *)

val position : Json.t -> (int, string) result
(** The number of leading stream events a resumed producer (or a
    skipping consumer) must not re-deliver. *)

val resume :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?backend:Backend.suite_factory ->
  ?latency_sample_rate:int ->
  path:string ->
  Loseq_verif.Suite.t ->
  (Session.t, string) result
(** [load], create a session with the checkpoint's lateness/window
    (and, like {!Session.create}, an optional live [metrics] sink,
    [trace] flight recorder, sampling rate, and backend choice),
    [restore].  Only an engine-direct [backend] (the default) resumes
    it.  Stored session parameters that {!Session.create} refuses
    (e.g. a zero [window]) are an [Error] naming [path]. *)
