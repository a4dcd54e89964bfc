let to_csv trace =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "time,name\n";
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s\n" e.time (Name.to_string e.name)))
    trace;
  Buffer.contents buf

module Validator = struct
  type t = { mutable prev : int }

  let create () = { prev = -1 }
  let last t = t.prev

  let accept t ~time =
    if time >= 0 && time >= t.prev then begin
      t.prev <- time;
      true
    end
    else false

  let check t ~pos ~time =
    if time < 0 then
      Error (Printf.sprintf "%s: negative timestamp %d" pos time)
    else if time < t.prev then
      Error
        (Printf.sprintf
           "%s: trace is not chronological (time %d goes back before %d)" pos
           time t.prev)
    else begin
      t.prev <- time;
      Ok ()
    end
end

(* Positions are formatted on the error path only: a good line never
   pays for the ["line N"] string. *)
let line_error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg)

let parse_csv_line ~lineno ?validator line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' || trimmed = "time,name" then Ok None
  else
    match String.index_opt trimmed ',' with
    | None -> line_error lineno "expected 'time,name'"
    | Some comma -> (
        let time_str = String.trim (String.sub trimmed 0 comma) in
        let name_str =
          String.trim
            (String.sub trimmed (comma + 1)
               (String.length trimmed - comma - 1))
        in
        match (int_of_string_opt time_str, Name.v name_str) with
        | Some time, name -> (
            match validator with
            | Some v when not (Validator.accept v ~time) -> (
                match
                  Validator.check v ~pos:(Printf.sprintf "line %d" lineno) ~time
                with
                | Error msg -> Error msg
                | Ok () -> assert false (* accept and check agree *))
            | None when time < 0 ->
                line_error lineno (Printf.sprintf "negative timestamp %d" time)
            | Some _ | None -> Ok (Some { Trace.name; time }))
        | None, _ ->
            line_error lineno (Printf.sprintf "bad timestamp %S" time_str)
        | exception Invalid_argument msg -> line_error lineno msg)

let of_csv source =
  let lines = String.split_on_char '\n' source in
  let validator = Validator.create () in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_csv_line ~lineno ~validator line with
        | Ok (Some e) -> loop (lineno + 1) (e :: acc) rest
        | Ok None -> loop (lineno + 1) acc rest
        | Error _ as e -> e)
  in
  loop 1 [] lines

let save_csv ~path trace =
  let oc = open_out path in
  output_string oc (to_csv trace);
  close_out oc

let load_csv path =
  match open_in path with
  | ic ->
      let n = in_channel_length ic in
      let source = really_input_string ic n in
      close_in ic;
      of_csv source
  | exception Sys_error msg -> Error msg

let merge traces =
  (* k-way stable merge: always take from the earliest-timestamped head,
     preferring the leftmost list on ties. *)
  let rec pick best_idx idx = function
    | [] -> best_idx
    | [] :: rest -> pick best_idx (idx + 1) rest
    | ((e : Trace.event) :: _) :: rest ->
        let better =
          match best_idx with
          | None -> true
          | Some (_, best_time) -> e.time < best_time
        in
        pick (if better then Some (idx, e.time) else best_idx) (idx + 1) rest
  in
  let rec loop acc lists =
    match pick None 0 lists with
    | None -> List.rev acc
    | Some (idx, _) ->
        let event = List.hd (List.nth lists idx) in
        let lists =
          List.mapi (fun i l -> if i = idx then List.tl l else l) lists
        in
        loop (event :: acc) lists
  in
  loop [] traces

let window ~from ~until trace =
  List.filter
    (fun (e : Trace.event) -> e.time >= from && e.time <= until)
    trace

let rename mapping trace =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (src, dst) -> Hashtbl.replace table src (Name.v dst))
    mapping;
  List.map
    (fun (e : Trace.event) ->
      match Hashtbl.find_opt table (Name.to_string e.name) with
      | Some name -> { e with Trace.name }
      | None -> e)
    trace

let counts trace =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace table e.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt table e.name)))
    trace;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Name.compare a b)

let duration trace =
  match trace with
  | [] | [ _ ] -> 0
  | (first : Trace.event) :: _ -> Trace.end_time trace - first.time
