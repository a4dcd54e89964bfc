(** Trace import/export and manipulation.

    Real verification flows pull event logs out of simulators, loggers
    or bus analyzers and massage them before checking: CSV is the
    exchange format, component traces get merged on the time axis, and
    recorder names get mapped onto a property's alphabet. *)

(** {1 Chronology validation}

    Every trace reader in the code base (CSV here, also behind
    [loseq serve], and the binary codec in [Loseq_ingest.Codec])
    funnels timestamps through this one validator, so "trace is not
    chronological" errors carry the same information everywhere: the
    position of the offending record and both timestamps involved. *)

module Validator : sig
  type t

  val create : unit -> t

  val check : t -> pos:string -> time:int -> (unit, string) result
  (** Feed the next timestamp.  [pos] names the record for error
      messages (["line 12"], ["record 3 (byte 47)"], ...).  Fails when
      [time] is negative or goes back before the previous timestamp;
      the message includes both times and the position. *)

  val accept : t -> time:int -> bool
  (** Allocation-free {!check} for ingestion hot paths: advances and
      returns [true] on an admissible timestamp, returns [false]
      without advancing otherwise — call {!check} afterwards when the
      rejection message (which needs a [pos]) is wanted. *)

  val last : t -> int
  (** The last accepted timestamp ([-1] before the first). *)
end

val to_csv : Trace.t -> string
(** ["time,name\n"] header plus one row per event. *)

(** {1 CSV}

    A line is [time,name], both fields trimmed of {!String.trim}'s
    whitespace (so CRLF endings and padding pass); blank lines, [#]
    comments and the [time,name] header are skipped.  The time is
    anything [int_of_string] accepts ([0x1F], [1_000], [+5]); a
    digits-only time is parsed in place.  The name must satisfy
    {!Name.v}, whose error wins over a bad timestamp on the same line.
    Error messages carry ["line N"]. *)

(** The one CSV line parser, streaming: lines are parsed in place in
    the chunk that holds them (a line split across chunks is assembled
    once), and each event reaches the caller as [(stream id, time)],
    the way the binary codec's [Decoder.feed_ids] emits them.  A name
    the host keeps is validated and resolved once, when first seen;
    later lines with the same bytes cost one table probe. *)
module Csv : sig
  type t

  val create : ?validator:Validator.t -> ?keep:(Name.t -> bool) -> unit -> t
  (** With [validator], chronology is enforced through it; without,
      only negative timestamps are rejected — the mode of a
      bounded-reorder host, where out-of-order lines are its business,
      not a parse error.  [keep] (default: every name) picks the names
      to intern: a host passes the names it resolves, so the table is
      bounded by its alphabet.  A name [keep] refuses is reported as
      stream id {!foreign} and never interned, so a stream of fresh
      foreign names grows nothing; it is validated and offered to
      [keep] again on every line that carries it. *)

  val foreign : int
  (** [0], the stream id of every name [keep] refused. *)

  val feed : t -> string -> emit:(int -> int -> unit) -> (unit, string) result
  (** Consume one chunk, calling [emit sid time] for each complete
      event line; a trailing partial line waits for the next chunk.
      Stops at the first bad line with its error. *)

  val finish : t -> emit:(int -> int -> unit) -> (unit, string) result
  (** End of input: parse a final line that has no newline. *)

  val name : t -> int -> Name.t
  (** The name of stream id [sid]; for {!foreign}, the name of the last
      refused line.  Raises [Invalid_argument] on an id never
      emitted. *)

  val interned : t -> int
  (** Names interned so far: at most those [keep] accepted. *)
end

val of_csv : string -> (Trace.t, string) result
(** Accepts the {!to_csv} format (header optional, blank lines and [#]
    comments ignored).  Events must be chronological; errors report
    the offending line number. *)

val save_csv : path:string -> Trace.t -> unit
val load_csv : string -> (Trace.t, string) result

val merge : Trace.t list -> Trace.t
(** Stable merge on timestamps: ties keep the order of the input lists
    (earlier list first), matching how a tap would have interleaved
    simultaneous observations. *)

val window : from:int -> until:int -> Trace.t -> Trace.t
(** Events with [from <= time <= until]. *)

val rename : (string * string) list -> Trace.t -> Trace.t
(** Map recorder names onto a property alphabet; unmapped names pass
    through.  Raises [Invalid_argument] on an invalid target name. *)

val counts : Trace.t -> (Name.t * int) list
(** Occurrence counts, sorted by name. *)

val duration : Trace.t -> int
(** [last time - first time] ([0] for traces with fewer than 2
    events). *)
