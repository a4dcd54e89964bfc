(** A SystemC-like discrete-event simulation kernel.

    The kernel provides the subset of the SystemC scheduler the paper's
    TL models rely on: simulation time, events with immediate / delta /
    timed notification, coroutine processes ([SC_THREAD] analogues,
    implemented with OCaml effect handlers), delta cycles and plain
    timed callbacks (for monitors' deadline timeouts).

    Determinism: all scheduling is FIFO within a time/delta step and the
    kernel owns a seeded random state used by {!wait_loose}, so a given
    seed reproduces a run exactly.  Loose timing — the paper's
    [wait (90, 110, SC_NS)] — is {!wait_loose}. *)

type t

val create : ?seed:int -> unit -> t
val now : t -> Time.t
val rng : t -> Random.State.t

(** {1 Processes} *)

val spawn : ?name:string -> t -> (unit -> unit) -> unit
(** Register a process; it starts when {!run} is called (or immediately
    if the simulation is already running).  A process may call the
    [wait_*] functions below; other code must not. *)

val wait_for : t -> Time.t -> unit
val wait_loose : t -> Time.t -> Time.t -> unit
(** [wait_loose t lo hi]: wait a uniformly drawn duration in
    [[lo, hi]] — the loose-timing principle. *)

(** {1 Events} *)

type event

val event : ?name:string -> t -> event
val event_name : event -> string

val notify : event -> unit
(** Delta notification: waiters resume in the next delta cycle at the
    current time (the common [e.notify(SC_ZERO_TIME)] idiom). *)

val notify_immediate : event -> unit
val notify_after : event -> Time.t -> unit

val wait : event -> unit
val wait_any : event list -> event
(** Returns the event that fired. *)

val wait_timeout : event -> Time.t -> [ `Event | `Timeout ]

(** {1 Timed callbacks} *)

type handle

val schedule : t -> after:Time.t -> (unit -> unit) -> handle
val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Raises [Invalid_argument] when [at] is in the past. *)

val cancel : handle -> unit

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Execute until no activity remains, until simulation time would
    exceed [until] (in which case [now] is advanced to [until]), or
    until {!stop} is requested.  Exceptions raised by processes
    propagate. *)

val advance : t -> until:Time.t -> unit
(** [run ~until], without allocating when no activity is due by
    [until] (then only [now] moves). *)

val stop : t -> unit
(** Request termination ([sc_stop] analogue): {!run} returns once the
    currently running process suspends; pending activity is left in
    place ({!pending} still reports it).  A subsequent {!run} resumes. *)

val stopped : t -> bool
(** Was the last {!run} ended by {!stop}?  Cleared when {!run} is called
    again. *)

val pending : t -> bool
(** Is there any scheduled activity left? *)

val stats : t -> int * int
(** [(processes spawned, events delivered)] — for tests and reports. *)
