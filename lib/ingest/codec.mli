(** The loseq binary trace wire format (LSQB).

    CSV is the exchange format; this is the {e wire} format: what a
    simulator streams into a live monitor session and what traces are
    archived as.  Design goals, in order: cheap to decode (the decoder
    is on the ingestion hot path), compact (varint-delta timestamps, an
    interned name table so each event is typically 2–4 bytes), and
    streamable (framed records, a decoder that accepts arbitrary chunk
    boundaries — a read(2) never aligns with records).

    {2 Layout}

    A stream is the 5-byte header {!magic} followed by framed records,
    each a 1-byte tag:

    - [0x01] {e define}: varint byte-length + bytes of a name.  Names
      are interned in order of first appearance; the n-th define record
      binds id [n-1].
    - [0x02] {e event}: varint name id + varint time delta (time minus
      the previous event's time; the first event's delta is absolute).
      Deltas are unsigned, so a decoded stream is chronological by
      construction — the encoder funnels input through the same
      {!Loseq_core.Trace_io.Validator} as the CSV reader and refuses
      non-chronological traces.
    - [0x03] {e end}: varint total event count, an integrity check.
      Optional (a live stream just ends), but {!encode} always writes
      it and the decoder verifies it when present.

    Round-trip with {!Loseq_core.Trace.t} (and hence CSV) is exact and
    property-tested: [decode (encode tr) = tr]. *)

open Loseq_core

val magic : string
(** ["LSQB\x01"] — 4 format bytes plus a version byte. *)

val looks_binary : string -> bool
(** Does [s] start with (a prefix of) {!magic}?  True on the empty
    string only when it could still become a binary stream. *)

val sniff : string -> [ `Binary | `Csv | `Tokens ]
(** Guess the format of a complete trace blob: {!magic} prefix ⇒
    [`Binary]; otherwise a comma in the first non-blank, non-comment
    line ⇒ [`Csv]; otherwise [`Tokens] (the whitespace
    [name@time] format of {!Loseq_core.Trace.parse}). *)

(** {1 Whole-trace conveniences} *)

val encode : Trace.t -> (string, string) result
(** Header, defines interleaved at first use, events, end record.
    Fails on a non-chronological trace (shared validator, positions as
    ["event N"]). *)

val encode_exn : Trace.t -> string
(** Raises [Invalid_argument]. *)

val decode : string -> (Trace.t, string) result
(** Errors carry the record ordinal and byte offset. *)

val save : path:string -> Trace.t -> (unit, string) result
val load : string -> (Trace.t, string) result

(** {1 Streaming} *)

module Encoder : sig
  type t

  val create : (string -> unit) -> t
  (** [create write] emits the header through [write] immediately;
      every record is written as one [write] call (so a socket sink
      frames naturally). *)

  val event : t -> Trace.event -> (unit, string) result
  (** Interning the name (emitting a define record if new) and framing
      the event.  Fails if [event] would break chronology. *)

  val finish : t -> unit
  (** Write the end record.  The encoder must not be used after. *)

  val events : t -> int
end

module Decoder : sig
  type t

  val create : unit -> t

  val feed_ids :
    t -> ?off:int -> ?len:int -> string ->
    emit:(int -> int -> unit) ->
    (unit, string) result
  (** The parser: consume one chunk, calling [emit id time] for every
      event completed by it, with [id] the stream's own name id (the
      ordinal of its define record; {!name} maps it back) and [time]
      absolute.  Partial records are buffered across calls; chunk
      boundaries are arbitrary.  An event record costs no allocation:
      no {!Loseq_core.Trace.event} is built and no name is hashed, so a
      host can resolve each id once and admit [(id, time)] pairs
      (see {!Session.wire}).  Errors (bad magic, unknown tag, invalid
      name, id out of range, count mismatch, data after the end
      record) are sticky: every later call fails with the same
      message. *)

  val feed :
    t -> ?off:int -> ?len:int -> string ->
    emit:(Trace.event -> unit) ->
    (unit, string) result
  (** {!feed_ids} with each event built from the name table: same
      parser, same errors. *)

  val name : t -> int -> Name.t
  (** The name stream id [id] was defined as.  Raises
      [Invalid_argument] unless [0 <= id < defined t]. *)

  val defined : t -> int
  (** Names defined so far: every id {!feed_ids} emits is below it. *)

  val finish : t -> (unit, string) result
  (** Signal end of input; fails if the stream stops mid-record. *)

  val events : t -> int
  (** Events emitted so far. *)

  val bytes_consumed : t -> int
  (** Whole-record bytes consumed so far (excludes the buffered partial
      record). *)
end
