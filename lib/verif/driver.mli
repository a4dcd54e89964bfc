(** Pattern-directed stimulus drivers.

    {!Stimuli.replay} re-emits abstract events on a tap; a {e driver}
    goes the last mile of the paper's "full integration of
    loose-orderings in an ABV framework": each pattern name is bound to
    a real action (typically a TLM register write), and a kernel process
    executes a pattern-conforming random sequence of those actions with
    loose-timed gaps.  The same pattern then generates the stimulus
    {e and} checks the component's reaction. *)

open Loseq_core
open Loseq_sim

type t

val create : Kernel.t -> t

val bind : t -> string -> (unit -> unit) -> unit
(** Associate a pattern name with the action that performs it.  Actions
    run in process context and may block (e.g. synchronized TLM
    transports).  Rebinding replaces. *)

val bound : t -> Name.t -> bool

exception Unbound of Name.t

val drive :
  ?seed:int ->
  ?rounds:int ->
  ?gap:Time.t * Time.t ->
  t ->
  Pattern.t ->
  unit
(** Spawn a process that generates a satisfying sequence for the pattern
    ({!Loseq_core.Generate.valid}) and performs the bound action of each
    event, waiting a loose-timed [gap] (default 100–300 ns) between
    actions.  Raises {!Unbound} immediately if some alphabet name has no
    binding, and {!Wellformed.Ill_formed} on a bad pattern.

    Note: the generated sequence satisfies the pattern's {e ordering};
    with a timed pattern, whether deadlines hold depends on the gaps and
    the actions' own delays — that is the device's job to honour and the
    checker's job to judge. *)

val drive_sequence : ?gap:Time.t * Time.t -> t -> Name.t list -> unit
(** Drive an explicit sequence (e.g. a mutated, violating one). *)

val drive_monitored :
  ?backend:Backend.suite_factory ->
  ?seed:int ->
  ?rounds:int ->
  ?gap:Time.t * Time.t ->
  t ->
  Tap.t ->
  Pattern.t ->
  Checker.t
(** {!drive}, closed-loop: hosts a checker for the pattern on a fresh
    {!Hub} over [tap] ({!Hub.add}; backend defaults to
    {!Loseq_core.Backend.flat_views}, an engine stepped engine-direct)
    before spawning the driver process,
    and returns it.  Alphabet names
    without a binding are bound to emit the abstract event on [tap],
    so the generated stimulus is observable out of the box; explicit
    bindings (real TLM actions) are left untouched and must emit on
    the tap themselves to be seen by the checker. *)

val actions_performed : t -> int
