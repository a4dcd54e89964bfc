(** The unified monitor-backend interface.

    Three monitor strategies coexist in the code base: the structural
    {!Monitor} (the paper's Drct construction, literally — rich
    diagnostics, coverage-grade introspection), the {!Flat} table
    engine (one engine per suite; a step is a handful of array reads)
    and the formula-progression ViaPSL monitor of
    [Loseq_psl.Progress].  Every host targets one value type,
    {!t}: a single-property host chooses a backend with a
    [Pattern.t -> t] {!factory}, a suite host with one
    {!suite_factory} ({!per_pattern} lifts the former).  Strategies
    implemented outside this library (the ViaPSL monitor) build a {!t}
    with {!make}.

    A backend is a record of closures over hidden monitor state — the
    OCaml idiom for a first-class object with capabilities.  The
    mandatory operations are the hosting contract
    ([step]/[check_time]/[next_deadline]/[finalize]/[verdict]/[reset]);
    optional capabilities ([states], [acceptable], [ops]) expose what
    only some strategies can provide, and hosts degrade gracefully when
    they are [None].

    Verdicts are {e shared} with {!Monitor} (the type equation below),
    so existing verdict-matching code hosts any backend unchanged.
    Backends whose native diagnostics are coarser (flat, PSL)
    synthesize a {!Diag.violation} with what they know. *)

type verdict = Monitor.verdict =
  | Running
  | Satisfied
  | Violated of Diag.violation

type t = {
  label : string;  (** ["direct"], ["flat"], ["psl"] *)
  pattern : Pattern.t;
  alphabet : Name.Set.t;
      (** [α(pattern)] — the routing key: a hosting layer must deliver
          every event whose name is in this set and may skip all
          others. *)
  step : Trace.event -> verdict;
      (** Consume one event.  Sticky after a decided verdict.  Events
          outside {!alphabet} are ignored (lenient). *)
  check_time : now:int -> verdict;
      (** Report a deadline miss if [now] exceeds an armed deadline. *)
  next_deadline : unit -> int option;
      (** Earliest time at which {!check_time} could report a violation
          — for scheduling a single timeout in a simulation host. *)
  finalize : now:int -> verdict;  (** End of observation at [now]. *)
  verdict : unit -> verdict;
  reset : unit -> unit;
      (** Back to the initial configuration; compiled tables are
          reused, structural monitors are rebuilt. *)
  states : (unit -> Recognizer.state list list) option;
      (** Recognizer states per fragment, for state coverage
          (structural backend only). *)
  acceptable : (unit -> Name.Set.t) option;
      (** Names tolerated as the next event (structural backend
          only). *)
  ops : (unit -> int) option;
      (** Elementary operations executed so far, when the strategy
          meters them. *)
  engine : Flat.t option;
      (** The engine this backend is a view of (flat backend only).
          Hosts that can exploit suite-level sharing — engine-direct
          dispatch, one-blob checkpoints — discover it here; everyone
          else treats the view as an ordinary per-checker backend. *)
}

val make :
  label:string ->
  pattern:Pattern.t ->
  ?alphabet:Name.Set.t ->
  step:(Trace.event -> verdict) ->
  ?check_time:(now:int -> verdict) ->
  ?next_deadline:(unit -> int option) ->
  ?finalize:(now:int -> verdict) ->
  verdict:(unit -> verdict) ->
  reset:(unit -> unit) ->
  ?states:(unit -> Recognizer.state list list) ->
  ?acceptable:(unit -> Name.Set.t) ->
  ?ops:(unit -> int) ->
  ?engine:Flat.t ->
  unit ->
  t
(** Build a backend, defaulting the optional operations: [alphabet]
    defaults to [Pattern.alpha pattern]; [check_time]/[finalize] to
    deadline-free no-ops returning the
    current verdict; [next_deadline] to [fun () -> None]. *)

(** {1 Factories} *)

type factory = Pattern.t -> t
(** One backend per pattern: what a batch host stepping a single
    property takes ([loseq check]), and what {!per_pattern} lifts to a
    suite host.  Factories raise {!Wellformed.Ill_formed} on
    ill-formed patterns (and the ViaPSL factory additionally
    [Invalid_argument] on ranges too wide to materialize a
    formula). *)

val direct : ?mode:Monitor.mode -> factory
(** The structural {!Monitor}: rich diagnostics, state coverage,
    [acceptable], metered ops.  [mode] defaults to lenient; strict mode
    only makes sense for a host that delivers {e all} events, not just
    the alphabet-routed ones. *)

type suite_factory = (string * Pattern.t) list -> t array
(** What every hub host ({!Loseq_verif.Hub.add},
    {!Loseq_verif.Suite.attach_hub} and everything built on them, the
    server, the SoC checkers) takes as its one [?backend] argument: the
    whole labelled suite in one call, so the factory can share state
    across checkers.  The returned array is in entry order. *)

val per_pattern : factory -> suite_factory
(** One backend per entry, built independently — how the per-pattern
    reference strategies ({!direct}, the ViaPSL monitor) host a suite.
    Such a hosting has no single engine: it is hosted one checker at a
    time and cannot be checkpointed. *)

val flat_views : suite_factory
(** Compile the whole suite into one {!Flat} engine and return one
    backend view per entry (label ["flat"]).  The views share the
    engine's packed state array and each carries it in {!t.engine}, so
    a host that recognizes the sharing steps the engine directly.  The
    default of every hub host, which [--backend compiled] and
    [--backend flat] both name. *)

val flat_engine_views : Flat.t -> t array
(** Backend views over an {e existing} engine — e.g. one produced by
    {!Flat.slice}, so a sharded host can lift each shard's sub-engine
    without recompiling the suite. *)

val flat : factory
(** A single-pattern flat engine (a one-entry suite) — [--backend flat]
    and [--backend compiled] on [loseq check], which steps one backend
    without a hub.  {!flat_views} is where the flavor earns its
    keep. *)

(** {1 Telemetry} *)

val instrument : Loseq_obs.Metrics.t -> t -> t
(** The same backend with its [step] counting into
    [loseq_backend_steps_total{backend=label}] on the given registry.
    Hosts apply this only when handed a live sink — an uninstrumented
    backend stays closure-for-closure what the factory built. *)

(** {1 Helpers} *)

val passed : verdict -> bool
(** [true] unless [Violated]. *)

(** {1 Three-valued in-flight verdicts}

    A speculative host ({!Loseq_ooo.Engine}) evaluates events the
    moment they arrive, so its per-checker verdict carries an extra
    dimension: has the watermark passed the decision point, making it
    definitive?  [Pass]/[Fail] are {e settled} — no admissible late
    event can change them; [Unsettled] verdicts may still be rolled
    back and replayed. *)

type tri = Pass | Fail | Unsettled

val tri_of_verdict : settled:bool -> verdict -> tri
(** [Unsettled] unless [settled]; then [Fail] for [Violated],
    [Pass] otherwise. *)

val tri_to_string : tri -> string
(** ["pass"], ["fail"] or ["unsettled"]. *)

val pp_tri : Format.formatter -> tri -> unit

val verdict_to_string : verdict -> string
(** ["pass (running)"], ["pass (satisfied)"] or ["FAIL: "] followed by
    {!Diag.violation_to_string} — the rendering hosts print in reports
    and verdict records. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** {!verdict_to_string}'s text, the violation in an [h] box. *)
