type verdict = Monitor.verdict =
  | Running
  | Satisfied
  | Violated of Diag.violation

type t = {
  label : string;
  pattern : Pattern.t;
  alphabet : Name.Set.t;
  step : Trace.event -> verdict;
  check_time : now:int -> verdict;
  next_deadline : unit -> int option;
  finalize : now:int -> verdict;
  verdict : unit -> verdict;
  reset : unit -> unit;
  states : (unit -> Recognizer.state list list) option;
  acceptable : (unit -> Name.Set.t) option;
  ops : (unit -> int) option;
  engine : Flat.t option;
}

let make ~label ~pattern ?alphabet ~step ?check_time ?next_deadline
    ?finalize ~verdict ~reset ?states ?acceptable ?ops ?engine () =
  let alphabet =
    match alphabet with Some a -> a | None -> Pattern.alpha pattern
  in
  let check_time =
    match check_time with Some f -> f | None -> fun ~now:_ -> verdict ()
  in
  let next_deadline =
    match next_deadline with Some f -> f | None -> fun () -> None
  in
  let finalize =
    match finalize with Some f -> f | None -> fun ~now -> check_time ~now
  in
  {
    label;
    pattern;
    alphabet;
    step;
    check_time;
    next_deadline;
    finalize;
    verdict;
    reset;
    states;
    acceptable;
    ops;
    engine;
  }

type factory = Pattern.t -> t
type suite_factory = (string * Pattern.t) list -> t array

(* ---- structural (Drct, the paper's construction) ---------------------- *)

let direct ?mode pattern =
  (* [reset] swaps in a fresh monitor; every closure reads the ref. *)
  let m = ref (Monitor.create ?mode pattern) in
  make ~label:"direct" ~pattern
    ~alphabet:(Monitor.alphabet !m)
    ~step:(fun e -> Monitor.step !m e)
    ~check_time:(fun ~now -> Monitor.check_time !m ~now)
    ~next_deadline:(fun () -> Monitor.next_deadline !m)
    ~finalize:(fun ~now -> Monitor.finalize !m ~now)
    ~verdict:(fun () -> Monitor.verdict !m)
    ~reset:(fun () -> m := Monitor.create ?mode pattern)
    ~states:(fun () -> Monitor.fragment_states !m)
    ~acceptable:(fun () -> Monitor.acceptable !m)
    ~ops:(fun () -> Monitor.ops !m)
    ()

(* ---- flat (the table engine) ------------------------------------------- *)

let lift_flat eng ck = function
  | Flat.Running -> Running
  | Flat.Satisfied -> Satisfied
  | Flat.Violated { reason; time; index } ->
      Violated
        {
          Diag.name = None;
          time;
          index;
          fragment = max (Flat.active_fragment eng ck) 0;
          reason;
        }

(* One checker of an engine, behind the per-checker contract: every
   closure indexes the engine's packed table.  Hosts that know about
   engines ([Hub.host_flat], checkpoint blobs) recognize a shared one
   through the [engine] capability. *)
let flat_view eng ck =
  let verdict () = lift_flat eng ck (Flat.verdict eng ck) in
  make ~label:"flat"
    ~pattern:(Flat.pattern eng ck)
    ~alphabet:(Flat.alphabet eng ck)
    ~step:(fun e ->
      Flat.step_checker eng ck e;
      if Flat.verdict_code eng ck = 0 then Running else verdict ())
    ~check_time:(fun ~now ->
      Flat.check_time_checker eng ck ~now;
      verdict ())
    ~next_deadline:(fun () ->
      match Flat.next_deadline_checker eng ck with -1 -> None | dl -> Some dl)
    ~finalize:(fun ~now ->
      Flat.check_time_checker eng ck ~now;
      verdict ())
    ~verdict
    ~reset:(fun () -> Flat.reset_checker eng ck)
    ~engine:eng ()

let flat_engine_views eng = Array.init (Flat.size eng) (flat_view eng)

let flat_views entries = flat_engine_views (Flat.compile entries)

let flat pattern = (flat_views [ ("pattern", pattern) ]).(0)

let per_pattern f entries =
  Array.of_list (List.map (fun (_, pattern) -> f pattern) entries)

(* ---- telemetry --------------------------------------------------------- *)

(* One steps counter per backend flavor, shared across every instrumented
   backend with the same label on the same registry (Metrics deduplicates
   by (name, labels)).  The wrapped [step] keeps the original closure —
   the bump is an int store in front of it. *)
let instrument metrics b =
  let steps =
    Loseq_obs.Metrics.counter metrics ~name:"loseq_backend_steps_total"
      ~help:"Monitor steps executed, by backend flavor"
      ~labels:[ ("backend", b.label) ]
      ()
  in
  let step e =
    Loseq_obs.Metrics.incr steps;
    b.step e
  in
  { b with step }

(* ---- helpers ----------------------------------------------------------- *)

let passed = function Running | Satisfied -> true | Violated _ -> false

(* ---- three-valued in-flight verdicts ----------------------------------- *)

type tri = Pass | Fail | Unsettled

let tri_of_verdict ~settled v =
  if not settled then Unsettled
  else match v with Running | Satisfied -> Pass | Violated _ -> Fail

let tri_to_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Unsettled -> "unsettled"

let pp_tri ppf t = Format.pp_print_string ppf (tri_to_string t)

let verdict_to_string = function
  | Running -> "pass (running)"
  | Satisfied -> "pass (satisfied)"
  | Violated v ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf "FAIL: ";
      Diag.add_violation buf v;
      Buffer.contents buf

(* The violation keeps its own h box after the prefix, where the
   printer has always opened it. *)
let pp_verdict ppf = function
  | Violated v -> Format.fprintf ppf "FAIL: %a" Diag.pp_violation v
  | v -> Format.pp_print_string ppf (verdict_to_string v)
