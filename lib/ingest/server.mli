(** The [loseq serve] engine: a live monitor endpoint.

    Reads a trace stream — LSQB binary or line-oriented CSV, sniffed
    from the first bytes — from stdin or a Unix-domain socket (one
    connection), and emits NDJSON records on [out] as things happen.
    One serve loop hosts the suite in one of two modes:

    - {b buffered} (the default): a {!Session} delivers events through
      its reorder buffer ([lateness]/[window]), with checkpoint/resume;
    - {b speculative} ([ooo]): a {!Loseq_ooo.Engine} applies events the
      moment they arrive and repairs by rollback when a late one lands.

    The loop — input sniffing, the reorder gate, signals, the metrics
    endpoint, server instruments, verdict records with provenance,
    artifacts, error mapping — is the same for both; a mode only
    decides what one event does and what a few records carry.

    Both wire formats reach a host as [(stream id, time)] pairs — the
    LSQB decoder's ids, or the CSV reader's ({!Loseq_core.Trace_io.Csv},
    which interns only the names the host resolves) — and each stream
    id is resolved once: to a tap id (buffered), or to an engine gid
    and a provenance route (speculative).

    Records are written to [out] as they arise and leave in one flush
    per input chunk: after each chunk is consumed, before serve waits
    for input (so [metrics-listening] and [start] are out before the
    first byte is read), before each checkpoint save (every record of
    an event the checkpoint accounts for is out before the file is),
    before the post-stream linger, and on every exit, error records
    included.

    Records, in order of appearance:

    - [{"type":"reorder-certificate", "lateness":.., "certified":..,
      "decided":.., "robust":..}] once at startup when the host
      reorders ([lateness > 0]) or [strict_reorder] is set: the suite's
      lateness-robustness bound against the configured window.
      [robust:false] means some reordering the host absorbs could flip
      a verdict; under [strict_reorder] the server then refuses to
      start (exit [2]);
    - [{"type":"start", "properties":.., ...}] once, after the input is
      open;
    - [{"type":"violation", "property":.., "time":.., "index":..,
      "fragment":.., "message":..}] the moment any property first
      fails — the monitor is {e live}, a violation does not wait for
      end of stream;
    - [{"type":"stats", ...}] every [stats_interval] accepted events
      (event-count, not wall-clock: deterministic and testable);
    - [{"type":"checkpoint", "path":.., "events":.., "bytes":..}]
      after each periodic {!Checkpoint.save} (buffered only; [bytes]
      is the encoded size written);
    - on SIGTERM/SIGINT: a final checkpoint (when configured), then
      [{"type":"interrupted", "events":..}] — exit code 0, the stream
      is expected to resume;
    - on end of stream: one [{"type":"verdict", "property":..,
      "passed":.., "verdict":..}] per property, then a closing
      [{"type":"summary", "passed":.., ...}];
    - [{"type":"error", "message":..}] on malformed input, a setup
      failure, or a checkpoint/artifact that cannot be written.

    Fields that differ by mode:

    {v
    record     buffered                         speculative (ooo)
    ---------  -------------------------------  ----------------------------
    start      resumed, skip                    mode:"speculative", lateness
    violation  (common fields)                  + speculative
    stats      events, delivered, reordered,    events, applied, late,
               dropped_late, forced,            commute_hits, rollbacks,
               occupancy, watermark             replayed, dropped_late,
                                                journal_depth, watermark,
                                                settled
    summary    events, delivered, reordered,    events, applied, late,
               dropped_late, forced,            commute_hits, rollbacks,
               occupancy, watermark, max_seen   replayed, dropped_late,
                                                max_journal, watermark
    v}

    The speculative mode adds two records: [{"type":"retracted",
    "property":..}] withdraws a speculative violation a rollback
    disproved, and [{"type":"settled", "property":.., "passed":..,
    "verdict":..}] marks each verdict the watermark made definitive.
    Its final [verdict] records are byte-identical to the buffered
    mode's up to the ["provenance"] chains (capture is arrival-order,
    so the 1-minimal witness may differ).  [checkpoint]/[resume] are
    refused (exit [2]) — speculative state is not checkpointable — and
    so is [backend].

    With [metrics_addr (host, port)] the server additionally binds a
    TCP endpoint answering [GET /metrics] (Prometheus text format
    0.0.4) and [GET /stats.json] (the same registry as compact JSON),
    multiplexed into the read loop's [select] — no threads.  A
    [{"type":"metrics-listening", "addr":.., "port":..}] record
    reports the bound address; with port [0] the kernel picks an
    ephemeral port and this record is how callers learn it.  SIGPIPE
    is ignored while serving, so a scraper disconnecting mid-response
    cannot kill the process.  After end of stream the endpoint
    {e lingers} (the final counters stay scrapable) until
    SIGTERM/SIGINT; the exit code still reflects the verdicts.

    Exit codes: [0] all properties passed (or interrupted), [1] some
    property failed, [2] input/setup/write error (including a
    strict-reorder refusal). *)

open Loseq_verif

val serve :
  ?metrics:Loseq_obs.Metrics.t ->
  ?metrics_addr:string * int ->
  ?stats_interval:int ->
  ?backend:Loseq_core.Backend.suite_factory ->
  ?lateness:int ->
  ?window:int ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?strict_reorder:bool ->
  ?ooo:bool ->
  ?final_time:int ->
  ?trace_out:string ->
  ?profile_out:string ->
  ?latency_sample_rate:int ->
  ?out:out_channel ->
  input:[ `Stdin | `Socket of string ] ->
  Suite.t ->
  int
(** [checkpoint] is the checkpoint file path; [checkpoint_every n]
    (default 0 = only on shutdown) saves it every [n] accepted events.
    [resume] (default false) restores from [checkpoint] when the file
    exists — the producer must replay the stream from the start; the
    server skips the events the checkpoint already accounts for.
    [lateness]/[window] configure the session's reorder stage (ignored
    on resume: the checkpoint's values win).  [out] defaults to
    stdout.

    [backend] picks the monitor backend of the buffered mode.  Without
    it, the suite is hosted as one {!Loseq_core.Flat} engine stepped
    directly by the hub ({!Loseq_core.Backend.flat_views} through
    {!Loseq_verif.Suite.attach_hub}).  Verdict records are the same
    either way.  The speculative mode always steps one flat engine and
    refuses a [backend] (exit [2]).  Provenance chains are minimized
    on [backend] as given, the flat engine without it, so they do not
    depend on the mode.  Checkpoints need the engine-direct hosting:
    any other [backend] ends the run with a typed [error] record at the
    first checkpoint, or at [resume].

    [metrics] (default noop) is threaded through the session to the hub
    and reorder buffer, and additionally feeds the server-level
    instruments [loseq_bytes_in_total], [loseq_records_decoded_total],
    [loseq_sessions_live], [loseq_verdicts_total{verdict=..}] and
    [loseq_checkpoint_writes_total].  Passing [metrics_addr], a
    positive [stats_interval] or [profile_out] without an explicit
    [metrics] creates a live registry automatically.

    Failed [verdict] records carry a ["provenance"] member — the
    minimal causal chain behind the Fail ({!Loseq_verif.Provenance}):
    the events that advanced the recognizer, delta-debugged to
    1-minimality, plus the firing deadline for deadline misses.
    Capture is always on (one bounded ring push per alphabet event) in
    both hosting modes; [loseq explain-verdict] replays the chain
    standalone.

    With [trace_out FILE] a flight recorder ({!Loseq_obs.Trace}) is
    live for the whole run — hub dispatch spans and deadline instants,
    reorder admission instants, backpressure stall spans, input
    admission and checkpoint-write spans, and (under [ooo]) the
    engine's speculation records — and the ring is exported to [FILE]
    on end of stream {e and} on interruption: NDJSON when [FILE] ends
    in [.ndjson], Chrome trace-event JSON (Perfetto-loadable)
    otherwise.  A [{"type":"trace", "path":.., "format":..,
    "records":.., "dropped":..}] record reports the export.

    With [profile_out FILE] a [loseq-profile/1] artifact
    ({!Loseq_obs.Profile}) is written alongside — measured per-checker
    alphabet-event counts and the dispatch-latency histogram — which
    [loseq analyze --shard-plan N --profile FILE] consumes as measured
    load; a [{"type":"profile", "path":.., "checkers":..}] record
    reports it.  Checkpoints and both artifacts are written atomically
    ({!Atomic_file.write}); one that cannot be written ends the run
    with an [error] record and exit [2].  [latency_sample_rate] (default 64, buffered mode)
    tunes the hub's dispatch-latency sampling. *)

(** {1 Records}

    The writer every record of {!serve} goes through, exposed so that
    tests and benchmarks measure the same path. *)

type sink
(** An output channel and the one buffer its records are rendered in. *)

val sink : out_channel -> sink

val emit_record : sink -> Loseq_core.Json.t -> unit
(** Writes [Json.to_string record ^ "\n"] to the sink's channel, in one
    channel call; the channel is not flushed. *)

val violation_record :
  ?speculative:bool -> name:string -> Loseq_core.Diag.violation ->
  Loseq_core.Json.t
(** The [violation] record of property [name]; [speculative] adds the
    member the speculative mode carries. *)

val retracted_record : name:string -> Loseq_core.Json.t
(** The speculative mode's [retracted] record of property [name]. *)

val feed : ?timeout:float -> path:string -> in_channel -> (int, string) result
(** Copy [in_channel] to the Unix-domain socket at [path] (connecting
    with retries for up to [timeout] seconds, default 5 — the server
    may still be binding); returns the number of bytes copied.  This
    is the producer side of the socket pipe, for shells without a
    [socat]: [loseq feed --socket S < trace.lsqb]. *)
