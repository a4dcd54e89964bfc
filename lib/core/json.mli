(** Minimal JSON values: emission for the machine-readable finding
    renderers ({!Finding}) and a strict parser used by the test suite to
    check that what we emit is well-formed.

    This is deliberately tiny — no external dependency, no streaming, no
    attempt at full RFC 8259 number fidelity (integers cover every value
    the renderers produce).  Strings are escaped on output (quotes,
    backslashes, control characters) and unescaped on input (including
    [\u] escapes, decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val emit : Buffer.t -> t -> unit
(** Appends the compact, single-line rendering to the buffer: a writer
    that reuses one buffer renders a record without allocating a new
    one. *)

val to_string : t -> string
(** {!emit} into a fresh buffer. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int i] without building the string: the
    decimal writer of {!emit}, shared with {!Diag}'s messages. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering (two-space indent), for human-facing [--format
    json] output. *)

val of_string : string -> (t, string) result
(** Strict parser; the error string names the offending position. *)

(** {1 Accessors (for tests)} *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any. *)

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
