(** Property suites: named bundles of loose-ordering properties.

    A verification team maintains properties in files, one per component
    or protocol.  The format is line-oriented:

    {v
    # The IPU interface contract (paper, Section 3)
    config_before_start:  {set_imgAddr, set_glAddr, set_glSize} << start
    recognition_deadline: start => read_img[100,60000] < set_irq within 60000000
    v}

    [#] starts a comment; blank lines are ignored; each entry is
    [name: pattern] with the concrete pattern syntax of
    {!Loseq_core.Parser}.  Entry names must be unique. *)

open Loseq_core

type entry = {
  label : string;
  pattern : Pattern.t;
  line : int;  (** 1-based source line, for finding locations *)
}
type t = entry list

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (t, error) result
(** Parse suite source text. *)

val load : string -> (t, error) result
(** Parse a file ([error.line] = 0 when the file cannot be read). *)

val to_string : t -> string
(** Render back to the file format (a right inverse of {!parse}). *)

val find : t -> string -> Pattern.t option

val entries_of : t -> (string * Pattern.t) list
(** The labelled patterns in entry order — what suite-level factories
    and the analysis passes consume. *)

val attach_hub :
  ?metrics:Loseq_obs.Metrics.t ->
  ?trace:Loseq_obs.Trace.t ->
  ?backend:Backend.suite_factory ->
  ?latency_sample_rate:int ->
  Tap.t ->
  t ->
  Hub.t
(** One {!Checker} per entry, hosted on a fresh alphabet-routed
    {!Hub} with a shared deadline wheel by {!Hub.host_suite}.
    [backend] compiles the whole suite in one call; it defaults to
    {!Loseq_core.Backend.flat_views}, whose one engine is hosted
    engine-direct ({!Hub.engine} returns it for blob checkpoints and
    direct stepping); the structural monitor's views,
    [Backend.per_pattern (fun p -> Backend.direct p)], are hosted one
    checker each.  [metrics], [trace] and [latency_sample_rate]
    (defaults noop, noop, 64) are handed to the hub — see {!Hub.create}
    and {!Hub.add}. *)

val attach_all : ?backend:Backend.suite_factory -> Tap.t -> t -> Report.t
(** {!attach_hub}, reported: one checker per entry, collected in a
    report. *)

val check_trace :
  ?metrics:Loseq_obs.Metrics.t ->
  ?backend:Backend.suite_factory ->
  ?final_time:int ->
  t ->
  Trace.t ->
  (string * bool) list
(** Offline: run every property over a recorded trace on the chosen
    backend ({!Loseq_core.Backend.flat_views} by default);
    [(label, passed)] per entry.  With a live [metrics] sink every
    backend is {!Loseq_core.Backend.instrument}ed, so
    [loseq_backend_steps_total] ends at exactly
    [length trace * length suite] (each entry steps the whole trace —
    no routing on the batch path). *)
