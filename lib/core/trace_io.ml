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

module Csv = struct
  let foreign = 0

  (* [names.(sid)] for every interned stream id [1 .. count - 1];
     [names.(0)] is the last name [keep] refused.  [slots] is an
     open-addressing table over the interned names' bytes: a stream id,
     or 0 for an empty slot.  A refused name is never interned, so a
     stream of fresh ones grows nothing.  [unset] fills the cells no id
     names. *)
  type t = {
    keep : Name.t -> bool;
    validator : Validator.t option;
    mutable names : Name.t array;
    mutable count : int;
    mutable slots : int array;
    partial : Buffer.t;
    mutable lineno : int;
  }

  let unset = Name.v "_"

  let create ?validator ?(keep = fun _ -> true) () =
    {
      keep;
      validator;
      names = Array.make 16 unset;
      count = 1;
      slots = Array.make 32 0;
      partial = Buffer.create 64;
      lineno = 0;
    }

  let name t sid =
    if sid < 0 || sid >= t.count then invalid_arg "Trace_io.Csv.name: unknown id";
    t.names.(sid)

  let interned t = t.count - 1

  (* [String.trim]'s whitespace. *)
  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

  let rec skip_space s a b = if a < b && is_space s.[a] then skip_space s (a + 1) b else a

  let rec drop_space s a b =
    if b > a && is_space s.[b - 1] then drop_space s a (b - 1) else b

  let hash s a b =
    let h = ref 0 in
    for i = a to b - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    !h land max_int

  (* [s.[a + i .. a + n - 1]] is [str.[i .. n - 1]]. *)
  let rec same_from str s a i n =
    i >= n
    || String.unsafe_get str i = String.unsafe_get s (a + i)
       && same_from str s a (i + 1) n

  (* [s.[a .. b-1]] is [str]. *)
  let same str s a b = String.length str = b - a && same_from str s a 0 (b - a)

  let rec probe_from t s a b mask i =
    let sid = Array.unsafe_get t.slots i in
    if sid = 0 || same (Name.to_string (Array.unsafe_get t.names sid)) s a b
    then i
    else probe_from t s a b mask ((i + 1) land mask)

  (* The slot holding the name [s.[a .. b-1]] of hash [h] ({!hash}), or
     the empty slot where it would go. *)
  let probe_hashed t s a b h =
    let mask = Array.length t.slots - 1 in
    probe_from t s a b mask (h land mask)

  let probe t s a b = probe_hashed t s a b (hash s a b)

  let intern t name =
    let n = Name.to_string name in
    if 2 * t.count >= Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) 0 in
      t.slots <- slots;
      for sid = 1 to t.count - 1 do
        let m = Name.to_string t.names.(sid) in
        slots.(probe t m 0 (String.length m)) <- sid
      done
    end;
    if t.count >= Array.length t.names then begin
      let names = Array.make (2 * t.count) unset in
      Array.blit t.names 0 names 0 t.count;
      t.names <- names
    end;
    let sid = t.count in
    t.names.(sid) <- name;
    t.count <- sid + 1;
    t.slots.(probe t n 0 (String.length n)) <- sid;
    sid

  (* The stream id of the name [s.[a .. b-1]]: one probe for an
     interned name; validation ([Name.v], which raises) and [keep] for
     any other. *)
  let resolve t s a b =
    let sid = t.slots.(probe t s a b) in
    if sid > 0 then sid
    else
      let name = Name.v (String.sub s a (b - a)) in
      if t.keep name then intern t name
      else begin
        t.names.(foreign) <- name;
        foreign
      end

  let rec digits_from s i b acc =
    if i >= b then acc
    else
      match String.unsafe_get s i with
      | '0' .. '9' as c -> digits_from s (i + 1) b ((10 * acc) + Char.code c - 48)
      | _ -> -1

  (* Digits only, short enough not to overflow: the common timestamp,
     parsed in place.  [-1] sends anything else through
     [int_of_string_opt], which owns the accepted literal forms. *)
  let digits s a b = if b = a || b - a > 18 then -1 else digits_from s a b 0

  let rec index_comma s a b =
    if a >= b then -1 else if s.[a] = ',' then a else index_comma s (a + 1) b

  let accept t ~lineno ~emit sid time =
    match t.validator with
    | Some v when not (Validator.accept v ~time) -> (
        match Validator.check v ~pos:(Printf.sprintf "line %d" lineno) ~time with
        | Error msg -> Error msg
        | Ok () -> assert false (* accept and check agree *))
    | None when time < 0 ->
        line_error lineno (Printf.sprintf "negative timestamp %d" time)
    | Some _ | None ->
        emit sid time;
        Ok ()

  let line t s off len ~emit =
    t.lineno <- t.lineno + 1;
    let lineno = t.lineno in
    let a = skip_space s off (off + len) in
    let b = drop_space s a (off + len) in
    if a = b || s.[a] = '#' || same "time,name" s a b then Ok ()
    else
      match index_comma s a b with
      | -1 -> line_error lineno "expected 'time,name'"
      | comma -> (
          let ta = skip_space s a comma in
          let tb = drop_space s ta comma in
          let na = skip_space s (comma + 1) b in
          let nb = drop_space s na b in
          (* the name first: its error wins over the timestamp's *)
          match resolve t s na nb with
          | exception Invalid_argument msg -> line_error lineno msg
          | sid -> (
              match digits s ta tb with
              | -1 -> (
                  let field = String.sub s ta (tb - ta) in
                  match int_of_string_opt field with
                  | Some time -> accept t ~lineno ~emit sid time
                  | None ->
                      line_error lineno (Printf.sprintf "bad timestamp %S" field))
              | time -> accept t ~lineno ~emit sid time))

  (* The name field of a plain line, [s.[a .. i-1]] so far, of running
     hash [h] ({!hash} before its mask).  At the newline, an interned
     name whose timestamp [time] the validator admits is emitted as
     [line] would, and the newline's index returned; [-1] for anything
     else, left untouched for [line]. *)
  let rec plain_name t s a i n h time ~emit =
    if i >= n then -1
    else
      let c = String.unsafe_get s i in
      if c <> '\n' then
        plain_name t s a (i + 1) n ((h * 31) + Char.code c) time ~emit
      else
        let sid =
          Array.unsafe_get t.slots (probe_hashed t s a i (h land max_int))
        in
        if
          sid > 0
          &&
          match t.validator with
          | Some v -> Validator.accept v ~time
          | None -> true
        then begin
          t.lineno <- t.lineno + 1;
          emit sid time;
          i
        end
        else -1

  (* A plain [digits,name\n] line from [a], parsed in the pass that
     finds its newline: at most 18 digits (as [digits] takes), a comma,
     then {!plain_name}.  [-1] at the first byte that does not fit. *)
  let rec plain_time t s a i n acc ~emit =
    if i >= n then -1
    else
      match String.unsafe_get s i with
      | '0' .. '9' as c when i - a < 18 ->
          plain_time t s a (i + 1) n ((10 * acc) + Char.code c - 48) ~emit
      | ',' when i > a -> plain_name t s (i + 1) (i + 1) n 0 acc ~emit
      | _ -> -1

  let rec index_newline s i n =
    if i >= n then -1 else if String.unsafe_get s i = '\n' then i
    else index_newline s (i + 1) n

  (* The line a chunk boundary split, assembled in [partial]. *)
  let partial_line t ~emit =
    let l = Buffer.contents t.partial in
    Buffer.clear t.partial;
    line t l 0 (String.length l) ~emit

  (* A plain line takes one pass ([plain_time]); any other line, or one
     that continues a split line, is found and handed to [line]. *)
  let feed t chunk ~emit =
    let n = String.length chunk in
    let rec lines from =
      let nl =
        if Buffer.length t.partial = 0 then
          plain_time t chunk from from n 0 ~emit
        else -1
      in
      if nl >= 0 then lines (nl + 1)
      else
        match index_newline chunk from n with
        | -1 ->
            Buffer.add_substring t.partial chunk from (n - from);
            Ok ()
        | nl -> (
            let parsed =
              if Buffer.length t.partial = 0 then
                line t chunk from (nl - from) ~emit
              else begin
                Buffer.add_substring t.partial chunk from (nl - from);
                partial_line t ~emit
              end
            in
            match parsed with Ok () -> lines (nl + 1) | Error _ as e -> e)
    in
    lines 0

  let finish t ~emit =
    if Buffer.length t.partial = 0 then Ok () else partial_line t ~emit
end

let of_csv source =
  let r = Csv.create ~validator:(Validator.create ()) () in
  let events = ref [] in
  let emit sid time = events := { Trace.name = Csv.name r sid; time } :: !events in
  match Result.bind (Csv.feed r source ~emit) (fun () -> Csv.finish r ~emit) with
  | Ok () -> Ok (List.rev !events)
  | Error _ as e -> e

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
