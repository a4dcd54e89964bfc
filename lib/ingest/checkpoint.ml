open Loseq_core
open Loseq_verif

let format_name = "loseq-checkpoint"

(* Version 2, the only one: the whole suite's run state as one base64
   flat-engine blob plus the interning table that pins its layout, so
   capture/restore cost stops scaling with checker count. *)
let format_version = 2

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* ---- the state engine -------------------------------------------------- *)

(* Every checkpoint reads and writes the one flat engine the session's
   hub steps engine-direct; a hub without one is refused, on capture
   and on resume alike.  An empty suite hosts no engine and has no
   state: an empty engine stands in. *)
let engine session =
  let hub = Session.hub session in
  match (Hub.engine hub, Hub.checkers hub) with
  | Some eng, _ -> Ok eng
  | None, [] -> Ok (Flat.compile [])
  | None, c :: _ ->
      Error
        (Printf.sprintf
           "checker %S: hosted one monitor per pattern, which cannot be \
            checkpointed (checkpointing needs the one suite engine)"
           (Checker.name c))

(* ---- capture ----------------------------------------------------------- *)

let json_of_event (e : Trace.event) =
  Json.Obj
    [ ("name", Json.String (Name.to_string e.name)); ("time", Json.Int e.time) ]

let capture session =
  let eng =
    match engine session with Ok eng -> eng | Error msg -> failwith msg
  in
  let checkers = Hub.checkers (Session.hub session) in
  let stats = Session.stats session in
  let reorder = Session.reorder session in
  Json.Obj
    [
      ("format", Json.String format_name);
      ("version", Json.Int format_version);
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
      ("engine", Json.String "flat");
      ("blob_version", Json.Int Flat.blob_version);
      ( "names",
        Json.List
          (Array.to_list
             (Array.map
                (fun n -> Json.String (Name.to_string n))
                (Flat.names eng))) );
      ("blob", Json.String (B64.encode (Flat.save_blob eng)));
      (* [events_seen] is checker bookkeeping, not engine state, so it
         rides alongside the blob. *)
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
    ]

(* ---- restore ----------------------------------------------------------- *)

let member_exn key json =
  match Json.member key json with
  | Some v -> v
  | None -> bad "checkpoint: missing field %S" key

let int_exn key json =
  match member_exn key json with
  | Json.Int n -> n
  | _ -> bad "checkpoint: field %S is not an integer" key

let string_exn key json =
  match member_exn key json with
  | Json.String s -> s
  | _ -> bad "checkpoint: field %S is not a string" key

let list_exn key json =
  match member_exn key json with
  | Json.List l -> l
  | _ -> bad "checkpoint: field %S is not a list" key

let event_of_json json : Trace.event =
  { name = Name.v (string_exn "name" json); time = int_exn "time" json }

(* The blob, checked against this suite's interning table. *)
let load_blob eng json =
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
  let engine_names =
    Array.to_list (Array.map Name.to_string (Flat.names eng))
  in
  if stored_names <> engine_names then
    bad "checkpoint interning table does not match this suite's alphabet";
  match Flat.load_blob eng blob with Ok () -> () | Error msg -> bad "%s" msg

(* Load the blob into the hosted engine, then restore each checker's
   bookkeeping. *)
let restore_checkers session json =
  (match engine session with
  | Ok eng -> load_blob eng json
  | Error msg -> bad "%s" msg);
  let events_seen =
    List.map
      (fun cj -> (string_exn "name" cj, int_exn "events_seen" cj))
      (list_exn "checkers" json)
  in
  List.iter
    (fun checker ->
      let name = Checker.name checker in
      match List.assoc_opt name events_seen with
      | Some n -> Checker.restore_meta checker ~events_seen:n
      | None -> bad "checkpoint has no checker record for %S" name)
    (Hub.checkers (Session.hub session))

let restore_exn session json =
  (match string_exn "format" json with
  | s when s = format_name -> ()
  | s -> bad "not a loseq checkpoint (format %S)" s);
  (match int_exn "version" json with
  | v when v = format_version -> ()
  | v -> bad "unsupported checkpoint version %d (expected %d)" v format_version);
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
  restore_checkers session json;
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
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_all ic)
      with
      | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | data -> (
          match Json.of_string data with
          | Ok _ as ok -> ok
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))

let position json =
  match int_exn "accepted" (member_exn "position" json) with
  | n -> Ok n
  | exception Bad msg -> Error msg

let resume ?metrics ?trace ?backend ?latency_sample_rate ~path suite =
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
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "%s: %s" path msg)
      | session -> Result.map (fun () -> session) (restore session json))
