open Loseq_core
open Loseq_verif

let format_name = "loseq-checkpoint"

(* Version 1: per-checker JSON states (any persistable backend).
   Version 2: one base64 engine blob + interning table (flat suite
   engine) — resume cost no longer scales with checker count.  Both
   are written and read: the session's hosting decides which. *)
let format_version = 1
let blob_format_version = 2

(* ---- capture ----------------------------------------------------------- *)

let json_of_range (r : Pattern.range) =
  Json.Obj
    [
      ("name", Json.String (Name.to_string r.name));
      ("lo", Json.Int r.lo);
      ("hi", Json.Int r.hi);
    ]

let json_of_reason (r : Diag.reason) =
  let tag t = [ ("tag", Json.String t) ] in
  let with_range t range = Json.Obj (tag t @ [ ("range", json_of_range range) ]) in
  match r with
  | Diag.Before_name -> Json.Obj (tag "before_name")
  | After_name -> Json.Obj (tag "after_name")
  | Overflow range -> with_range "overflow" range
  | Underflow range -> with_range "underflow" range
  | Reentered range -> with_range "reentered" range
  | Missing range -> with_range "missing" range
  | Empty_fragment -> Json.Obj (tag "empty_fragment")
  | Trigger_early -> Json.Obj (tag "trigger_early")
  | Deadline_miss { started; deadline; now } ->
      Json.Obj
        (tag "deadline_miss"
        @ [
            ("started", Json.Int started);
            ("deadline", Json.Int deadline);
            ("now", Json.Int now);
          ])
  | Late_conclusion { deadline; at } ->
      Json.Obj
        (tag "late_conclusion"
        @ [ ("deadline", Json.Int deadline); ("at", Json.Int at) ])
  | Foreign name ->
      Json.Obj (tag "foreign" @ [ ("name", Json.String (Name.to_string name)) ])
  | Formula_falsified -> Json.Obj (tag "formula_falsified")

let json_of_verdict (v : Compiled.verdict) =
  match v with
  | Compiled.Running -> Json.Obj [ ("status", Json.String "running") ]
  | Satisfied -> Json.Obj [ ("status", Json.String "satisfied") ]
  | Violated { reason; time; index } ->
      Json.Obj
        [
          ("status", Json.String "violated");
          ("reason", json_of_reason reason);
          ("time", Json.Int time);
          ("index", Json.Int index);
        ]

let json_of_rec_state (s : Compiled.rec_state) =
  match s with
  | Compiled.Idle -> Json.String "idle"
  | Waiting -> Json.String "waiting"
  | Started -> Json.String "started"
  | Done -> Json.String "done"
  | Counting n -> Json.Obj [ ("counting", Json.Int n) ]

let json_of_persisted (p : Compiled.persisted) =
  Json.Obj
    [
      ( "recs",
        Json.List (Array.to_list (Array.map json_of_rec_state p.p_recs)) );
      ("active", Json.Int p.p_active);
      ("index", Json.Int p.p_index);
      ("started", Json.Int p.p_started);
      ("q_done", Json.Bool p.p_q_done);
      ("rounds", Json.Int p.p_rounds);
      ("verdict", json_of_verdict p.p_verdict);
    ]

let json_of_event (e : Trace.event) =
  Json.Obj
    [ ("name", Json.String (Name.to_string e.name)); ("time", Json.Int e.time) ]

let common_fields ~version session =
  let stats = Session.stats session in
  let reorder = Session.reorder session in
  [
    ("format", Json.String format_name);
    ("version", Json.Int version);
    ("suite", Json.String (Suite.to_string (Session.suite session)));
    ("lateness", Json.Int (Session.lateness session));
    ("window", Json.Int (Session.window session));
    ( "position",
      Json.Obj
        [
          ("accepted", Json.Int stats.accepted);
          ("delivered", Json.Int stats.delivered);
          ("forced", Json.Int stats.forced);
          ("now", Json.Int (Session.now session));
        ] );
    ( "reorder",
      Json.Obj
        [
          ("max_seen", Json.Int (Reorder.max_seen reorder));
          ("released", Json.Int (Reorder.released reorder));
          ("dropped_late", Json.Int (Reorder.dropped_late reorder));
          ("reordered", Json.Int (Reorder.reordered reorder));
          ( "pending",
            Json.List (List.map json_of_event (Reorder.pending reorder)) );
        ] );
  ]

let capture session =
  let hub = Session.hub session in
  let checkers = Hub.checkers hub in
  match Hub.engine hub with
  | Some eng ->
      (* v2: the engine's packed state array, base64, plus the
         interning table that pins its layout.  [events_seen] is
         checker bookkeeping, not engine state, so it rides alongside. *)
      Json.Obj
        (common_fields ~version:blob_format_version session
        @ [
            ("engine", Json.String "flat");
            ("blob_version", Json.Int Flat.blob_version);
            ( "names",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun n -> Json.String (Name.to_string n))
                      (Flat.names eng))) );
            ("blob", Json.String (B64.encode (Flat.save_blob eng)));
            ( "checkers",
              Json.List
                (List.map
                   (fun c ->
                     Json.Obj
                       [
                         ("name", Json.String (Checker.name c));
                         ("events_seen", Json.Int (Checker.events_seen c));
                       ])
                   checkers) );
          ])
  | None ->
      let checker_states =
        List.map
          (fun c ->
            let backend = Checker.backend c in
            let persisted =
              match backend.Backend.persist with
              | Some persist -> persist ()
              | None ->
                  failwith
                    (Printf.sprintf
                       "checker %S: backend %S has no persistence capability \
                        (checkpointing requires the compiled or flat backend)"
                       (Checker.name c) backend.Backend.label)
            in
            Json.Obj
              [
                ("name", Json.String (Checker.name c));
                ("events_seen", Json.Int (Checker.events_seen c));
                ("state", json_of_persisted persisted);
              ])
          checkers
      in
      Json.Obj
        (common_fields ~version:format_version session
        @ [ ("checkers", Json.List checker_states) ])

(* ---- restore ----------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let member_exn key json =
  match Json.member key json with
  | Some v -> v
  | None -> bad "checkpoint: missing field %S" key

let int_exn key json =
  match member_exn key json with
  | Json.Int n -> n
  | _ -> bad "checkpoint: field %S is not an integer" key

let bool_exn key json =
  match member_exn key json with
  | Json.Bool b -> b
  | _ -> bad "checkpoint: field %S is not a boolean" key

let string_exn key json =
  match member_exn key json with
  | Json.String s -> s
  | _ -> bad "checkpoint: field %S is not a string" key

let list_exn key json =
  match member_exn key json with
  | Json.List l -> l
  | _ -> bad "checkpoint: field %S is not a list" key

let range_of_json json =
  let name = Name.v (string_exn "name" json) in
  let lo = int_exn "lo" json and hi = int_exn "hi" json in
  match Pattern.range ~lo ~hi name with
  | r -> r
  | exception Invalid_argument msg -> bad "checkpoint: bad range: %s" msg

let reason_of_json json : Diag.reason =
  match string_exn "tag" json with
  | "before_name" -> Diag.Before_name
  | "after_name" -> After_name
  | "overflow" -> Overflow (range_of_json (member_exn "range" json))
  | "underflow" -> Underflow (range_of_json (member_exn "range" json))
  | "reentered" -> Reentered (range_of_json (member_exn "range" json))
  | "missing" -> Missing (range_of_json (member_exn "range" json))
  | "empty_fragment" -> Empty_fragment
  | "trigger_early" -> Trigger_early
  | "deadline_miss" ->
      Deadline_miss
        {
          started = int_exn "started" json;
          deadline = int_exn "deadline" json;
          now = int_exn "now" json;
        }
  | "late_conclusion" ->
      Late_conclusion
        { deadline = int_exn "deadline" json; at = int_exn "at" json }
  | "foreign" -> Foreign (Name.v (string_exn "name" json))
  | "formula_falsified" -> Formula_falsified
  | tag -> bad "checkpoint: unknown violation reason tag %S" tag

let verdict_of_json json : Compiled.verdict =
  match string_exn "status" json with
  | "running" -> Compiled.Running
  | "satisfied" -> Satisfied
  | "violated" ->
      Violated
        {
          reason = reason_of_json (member_exn "reason" json);
          time = int_exn "time" json;
          index = int_exn "index" json;
        }
  | status -> bad "checkpoint: unknown verdict status %S" status

let rec_state_of_json json : Compiled.rec_state =
  match json with
  | Json.String "idle" -> Compiled.Idle
  | Json.String "waiting" -> Waiting
  | Json.String "started" -> Started
  | Json.String "done" -> Done
  | Json.Obj _ -> Counting (int_exn "counting" json)
  | _ -> bad "checkpoint: malformed recognizer state"

let persisted_of_json json : Compiled.persisted =
  {
    p_recs =
      Array.of_list (List.map rec_state_of_json (list_exn "recs" json));
    p_active = int_exn "active" json;
    p_index = int_exn "index" json;
    p_started = int_exn "started" json;
    p_q_done = bool_exn "q_done" json;
    p_rounds = int_exn "rounds" json;
    p_verdict = verdict_of_json (member_exn "verdict" json);
  }

let event_of_json json : Trace.event =
  { name = Name.v (string_exn "name" json); time = int_exn "time" json }

(* v1 body: one persisted JSON state per checker, restored through the
   backend's restore capability. *)
let restore_checkers_v1 session json =
  let checkers = Hub.checkers (Session.hub session) in
  List.iter
    (fun cj ->
      let name = string_exn "name" cj in
      let checker =
        match List.find_opt (fun c -> Checker.name c = name) checkers with
        | Some c -> c
        | None -> bad "checkpoint names checker %S, not in this suite" name
      in
      let backend = Checker.backend checker in
      let restore =
        match backend.Backend.restore with
        | Some f -> f
        | None ->
            bad "checker %S: backend %S has no restore capability" name
              backend.Backend.label
      in
      let persisted = persisted_of_json (member_exn "state" cj) in
      (match restore persisted with
      | () -> ()
      | exception Invalid_argument msg ->
          bad "checker %S: state does not fit its monitor: %s" name msg);
      Checker.restore_meta checker ~events_seen:(int_exn "events_seen" cj))
    (list_exn "checkers" json)

(* v2 body: one engine blob.  A flat-hosted session loads it straight
   into its shared engine; any other hosting decodes into a scratch
   engine compiled from the same suite and bridges each checker through
   the persisted form — so compiled-written checkpoints resume under
   flat and vice versa. *)
let restore_checkers_v2 session json =
  (match string_exn "engine" json with
  | "flat" -> ()
  | e -> bad "checkpoint engine %S is not supported (expected \"flat\")" e);
  (match int_exn "blob_version" json with
  | v when v = Flat.blob_version -> ()
  | v ->
      bad "unsupported flat blob version %d (expected %d)" v Flat.blob_version);
  let blob =
    match B64.decode (string_exn "blob" json) with
    | Ok b -> b
    | Error msg -> bad "checkpoint blob: %s" msg
  in
  let stored_names =
    List.map
      (function
        | Json.String s -> s
        | _ -> bad "checkpoint: field \"names\" must hold strings")
      (list_exn "names" json)
  in
  let events_seen_of =
    let table =
      List.map
        (fun cj -> (string_exn "name" cj, int_exn "events_seen" cj))
        (list_exn "checkers" json)
    in
    fun name ->
      match List.assoc_opt name table with
      | Some n -> n
      | None -> bad "checkpoint has no checker record for %S" name
  in
  let hub = Session.hub session in
  let checkers = Hub.checkers hub in
  let shared = Hub.engine hub in
  let eng =
    match shared with
    | Some eng -> eng
    | None ->
        Flat.compile
          (List.map
             (fun (e : Suite.entry) -> (e.label, e.pattern))
             (Session.suite session))
  in
  let engine_names =
    Array.to_list (Array.map Name.to_string (Flat.names eng))
  in
  if stored_names <> engine_names then
    bad "checkpoint interning table does not match this suite's alphabet";
  (match Flat.load_blob eng blob with
  | Ok () -> ()
  | Error msg -> bad "%s" msg);
  let checker_named name =
    match List.find_opt (fun c -> Checker.name c = name) checkers with
    | Some c -> c
    | None -> bad "checkpoint names checker %S, not in this suite" name
  in
  for ck = 0 to Flat.size eng - 1 do
    let name = Flat.label eng ck in
    let checker = checker_named name in
    (match shared with
    | Some _ -> () (* the blob load above already is this checker's state *)
    | None -> (
        let backend = Checker.backend checker in
        let restore =
          match backend.Backend.restore with
          | Some f -> f
          | None ->
              bad "checker %S: backend %S has no restore capability" name
                backend.Backend.label
        in
        match restore (Flat.persist_checker eng ck) with
        | () -> ()
        | exception Invalid_argument msg ->
            bad "checker %S: state does not fit its monitor: %s" name msg));
    Checker.restore_meta checker ~events_seen:(events_seen_of name)
  done

let restore_exn session json =
  (match string_exn "format" json with
  | s when s = format_name -> ()
  | s -> bad "not a loseq checkpoint (format %S)" s);
  let version = int_exn "version" json in
  if version <> format_version && version <> blob_format_version then
    bad "unsupported checkpoint version %d (expected %d or %d)" version
      format_version blob_format_version;
  let stored_suite = string_exn "suite" json in
  let this_suite = Suite.to_string (Session.suite session) in
  if stored_suite <> this_suite then
    bad "checkpoint was taken against a different suite";
  let stats = Session.stats session in
  if stats.accepted <> 0 || stats.delivered <> 0 || Session.now session <> 0
  then bad "checkpoint restore requires a fresh session";
  let position = member_exn "position" json in
  let reorder_json = member_exn "reorder" json in
  (* Monitor states first, then time: the hub's wheel is re-armed from
     the restored states, and advancing a fresh session's kernel fires
     nothing (no deadline is armed in an initial state). *)
  if version = blob_format_version then restore_checkers_v2 session json
  else restore_checkers_v1 session json;
  (match
     Reorder.restore (Session.reorder session)
       ~max_seen:(int_exn "max_seen" reorder_json)
       ~released:(int_exn "released" reorder_json)
       ~dropped_late:(int_exn "dropped_late" reorder_json)
       ~reordered:(int_exn "reordered" reorder_json)
       (List.map event_of_json (list_exn "pending" reorder_json))
   with
  | Ok () -> ()
  | Error msg -> bad "%s" msg);
  Session.restore_counters session
    ~accepted:(int_exn "accepted" position)
    ~delivered:(int_exn "delivered" position)
    ~forced:(int_exn "forced" position);
  let now = int_exn "now" position in
  let kernel = Session.kernel session in
  let module Time = Loseq_sim.Time in
  let module Kernel = Loseq_sim.Kernel in
  if Time.( < ) (Kernel.now kernel) (Time.ps now) then
    Kernel.run ~until:(Time.ps now) kernel;
  Hub.resync (Session.hub session)

let restore session json =
  match restore_exn session json with
  | () -> Ok ()
  | exception Bad msg -> Error msg

(* ---- files ------------------------------------------------------------- *)

let save ~path session =
  match capture session with
  | exception Failure msg -> Error msg
  | json -> Atomic_file.write ~path (Json.to_string json ^ "\n")

let load ~path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      match Json.of_string data with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let position json =
  match int_exn "accepted" (member_exn "position" json) with
  | n -> Ok n
  | exception Bad msg -> Error msg

let resume ?metrics ?trace ?backend ?latency_sample_rate ~path
    suite =
  match load ~path with
  | Error _ as err -> err
  | Ok json -> (
      match
        let lateness = int_exn "lateness" json
        and window = int_exn "window" json in
        Session.create ?metrics ?trace ?backend ?latency_sample_rate ~lateness
          ~window suite
      with
      | exception Bad msg -> Error msg
      | session -> (
          match restore session json with
          | Ok () -> Ok session
          | Error _ as err -> err))
