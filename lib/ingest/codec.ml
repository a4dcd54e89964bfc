open Loseq_core

let magic = "LSQB\x01"
let tag_define = 0x01
let tag_event = 0x02
let tag_end = 0x03

(* Fail fast on garbage rather than attempting a multi-megabyte
   "name". *)
let max_name_len = 4096

let looks_binary s =
  let n = min (String.length s) (String.length magic) in
  String.sub s 0 n = String.sub magic 0 n

let sniff s =
  if String.length s > 0 && looks_binary s then `Binary
  else
    let lines = String.split_on_char '\n' s in
    let rec first_payload = function
      | [] -> `Tokens
      | line :: rest ->
          let t = String.trim line in
          if t = "" || t.[0] = '#' then first_payload rest
          else if String.contains t ',' then `Csv
          else `Tokens
    in
    first_payload lines

(* ---- varints (LEB128, unsigned) --------------------------------------- *)

let add_varint buf n =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let low = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue_ := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

(* ---- streaming encoder ------------------------------------------------- *)

module Encoder = struct
  type t = {
    write : string -> unit;
    ids : (Name.t, int) Hashtbl.t;
    validator : Trace_io.Validator.t;
    buf : Buffer.t;
    mutable prev_time : int;
    mutable events : int;
    mutable finished : bool;
  }

  let create write =
    write magic;
    {
      write;
      ids = Hashtbl.create 16;
      validator = Trace_io.Validator.create ();
      buf = Buffer.create 32;
      prev_time = 0;
      events = 0;
      finished = false;
    }

  let events t = t.events

  let flush_record t =
    t.write (Buffer.contents t.buf);
    Buffer.clear t.buf

  let intern t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.ids in
        Hashtbl.replace t.ids name id;
        let s = Name.to_string name in
        Buffer.add_char t.buf (Char.chr tag_define);
        add_varint t.buf (String.length s);
        Buffer.add_string t.buf s;
        flush_record t;
        id

  let event t (e : Trace.event) =
    if t.finished then Error "Codec.Encoder: stream already finished"
    else if Trace_io.Validator.accept t.validator ~time:e.time then begin
      let id = intern t e.name in
      Buffer.add_char t.buf (Char.chr tag_event);
      add_varint t.buf id;
      add_varint t.buf (e.time - t.prev_time);
      flush_record t;
      t.prev_time <- e.time;
      t.events <- t.events + 1;
      Ok ()
    end
    else
      let pos = Printf.sprintf "event %d" (t.events + 1) in
      Trace_io.Validator.check t.validator ~pos ~time:e.time

  let finish t =
    if not t.finished then begin
      t.finished <- true;
      Buffer.add_char t.buf (Char.chr tag_end);
      add_varint t.buf t.events;
      flush_record t
    end
end

let encode trace =
  let buf = Buffer.create 1024 in
  let enc = Encoder.create (Buffer.add_string buf) in
  let rec feed = function
    | [] ->
        Encoder.finish enc;
        Ok (Buffer.contents buf)
    | e :: rest -> (
        match Encoder.event enc e with
        | Ok () -> feed rest
        | Error _ as err -> err)
  in
  feed trace

let encode_exn trace =
  match encode trace with Ok s -> s | Error msg -> invalid_arg msg

(* ---- streaming decoder ------------------------------------------------- *)

module Decoder = struct
  type state = Header | Records | Ended | Failed of string

  type t = {
    mutable state : state;
    mutable pending : string;  (* buffered partial record *)
    mutable names : Name.t array;
    mutable defined : int;
    validator : Trace_io.Validator.t;
    mutable prev_time : int;
    mutable events : int;
    mutable records : int;
    mutable consumed : int;  (* absolute offset of [pending]'s start *)
    mutable next : int;  (* position after the last varint read *)
  }

  let create () =
    {
      state = Header;
      pending = "";
      names = [||];
      defined = 0;
      validator = Trace_io.Validator.create ();
      prev_time = 0;
      events = 0;
      records = 0;
      consumed = 0;
      next = 0;
    }

  let events t = t.events
  let bytes_consumed t = t.consumed
  let defined t = t.defined

  let name t id =
    if id < 0 || id >= t.defined then invalid_arg "Codec.Decoder.name"
    else t.names.(id)

  let fail t msg =
    t.state <- Failed msg;
    Error msg

  let fail_at t msg =
    fail t
      (Printf.sprintf "record %d (byte %d): %s" (t.records + 1) t.consumed msg)

  let define t name =
    if t.defined = Array.length t.names then begin
      let grown = Array.make (max 8 (2 * t.defined)) name in
      Array.blit t.names 0 grown 0 t.defined;
      t.names <- grown
    end;
    t.names.(t.defined) <- name;
    t.defined <- t.defined + 1

  (* Parse errors thrown out of the record loop: [Malformed] gets the
     record ordinal and byte offset prefixed by {!feed_ids};
     [Rejected] carries its own position. *)
  exception Malformed of string
  exception Rejected of string

  (* Varint at [pos]: returns its value and leaves the position after
     it in [t.next], or sets [t.next] to -1 when [s] ends mid-varint.
     Raises past 63 bits (a malformed stream must not spin the reader
     or wrap the accumulator).  Allocation-free: no option, no pair. *)
  let rec varint t s limit pos shift acc =
    if pos >= limit then begin
      t.next <- -1;
      0
    end
    else if shift > 63 then
      raise (Malformed "overlong varint (more than 63 bits)")
    else
      let b = Char.code (String.unsafe_get s pos) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        t.next <- pos + 1;
        acc
      end
      else varint t s limit (pos + 1) (shift + 7) acc

  (* One record from [s] at [pos]: the position after it, or -1 when
     [s] ends inside it (the suffix stays buffered for the next feed).
     An event record calls [emit stream_id time]; an end record moves
     the decoder to [Ended]. *)
  let record t s pos limit emit =
    let tag = Char.code (String.unsafe_get s pos) in
    if tag = tag_event then begin
      let id = varint t s limit (pos + 1) 0 0 in
      if t.next < 0 then -1
      else
        let delta = varint t s limit t.next 0 0 in
        let next = t.next in
        if next < 0 then -1
        else if id < 0 || id >= t.defined then
          raise
            (Malformed
               (Printf.sprintf "event references undefined name id %d" id))
        else
          let time = t.prev_time + delta in
          if Trace_io.Validator.accept t.validator ~time then begin
            t.prev_time <- time;
            t.events <- t.events + 1;
            emit id time;
            next
          end
          else
            (* deltas are unsigned, so only a negative absolute first
               timestamp can land here *)
            let pos =
              Printf.sprintf "record %d (byte %d)" (t.records + 1) t.consumed
            in
            match Trace_io.Validator.check t.validator ~pos ~time with
            | Error msg -> raise (Rejected msg)
            | Ok () -> assert false (* accept and check agree *)
    end
    else if tag = tag_define then begin
      let len = varint t s limit (pos + 1) 0 0 in
      let p = t.next in
      if p < 0 then -1
      else if len > max_name_len then
        raise (Malformed (Printf.sprintf "name of %d bytes exceeds limit" len))
      else if p + len > limit then -1
      else
        match Name.v (String.sub s p len) with
        | name ->
            define t name;
            p + len
        | exception Invalid_argument msg -> raise (Malformed msg)
    end
    else if tag = tag_end then begin
      let count = varint t s limit (pos + 1) 0 0 in
      let p = t.next in
      if p < 0 then -1
      else if count <> t.events then
        raise
          (Malformed
             (Printf.sprintf "end record claims %d events, decoded %d" count
                t.events))
      else begin
        t.state <- Ended;
        p
      end
    end
    else raise (Malformed (Printf.sprintf "unknown record tag 0x%02x" tag))

  let feed_ids t ?(off = 0) ?len s ~emit =
    let len = match len with Some l -> l | None -> String.length s - off in
    match t.state with
    | Failed msg -> Error msg
    | _ when len = 0 -> Ok ()
    | Ended -> fail t "data after the end record"
    | Header | Records -> (
        let s =
          if t.pending = "" && off = 0 && len = String.length s then s
          else t.pending ^ String.sub s off len
        in
        t.pending <- "";
        let limit = String.length s in
        let pos = ref 0 in
        (* header *)
        let header_result =
          if t.state = Header then begin
            let m = String.length magic in
            if limit - !pos < m then
              if String.sub s !pos (limit - !pos)
                 = String.sub magic 0 (limit - !pos)
              then `Incomplete
              else `Bad
            else if String.sub s !pos m = magic then begin
              pos := !pos + m;
              t.consumed <- t.consumed + m;
              t.state <- Records;
              `Ok
            end
            else `Bad
          end
          else `Ok
        in
        match header_result with
        | `Bad -> fail t "bad magic: not a loseq binary trace"
        | `Incomplete ->
            t.pending <- String.sub s !pos (limit - !pos);
            Ok ()
        | `Ok -> (
            let rec records pos =
              if pos >= limit then Ok ()
              else
                let p = record t s pos limit emit in
                if p < 0 then begin
                  t.pending <- String.sub s pos (limit - pos);
                  Ok ()
                end
                else begin
                  t.records <- t.records + 1;
                  t.consumed <- t.consumed + (p - pos);
                  match t.state with
                  | Ended when p < limit -> fail t "data after the end record"
                  | _ -> records p
                end
            in
            try records !pos with
            | Malformed msg -> fail_at t msg
            | Rejected msg -> fail t msg))

  let feed t ?off ?len s ~emit =
    feed_ids t ?off ?len s ~emit:(fun id time ->
        emit { Trace.name = t.names.(id); time })

  let finish t =
    match t.state with
    | Failed msg -> Error msg
    | Header ->
        if t.pending = "" && t.consumed = 0 then
          fail t "empty input: not a loseq binary trace"
        else fail t "truncated stream: incomplete header"
    | Records when t.pending <> "" ->
        fail t
          (Printf.sprintf "truncated stream: %d byte(s) of an incomplete record"
             (String.length t.pending))
    | Records | Ended -> Ok ()
end

let decode s =
  let acc = ref [] in
  let dec = Decoder.create () in
  match Decoder.feed dec s ~emit:(fun e -> acc := e :: !acc) with
  | Error _ as err -> err
  | Ok () -> (
      match Decoder.finish dec with
      | Error _ as err -> err
      | Ok () -> Ok (List.rev !acc))

let save ~path trace =
  match encode trace with
  | Error _ as err -> err
  | Ok data -> (
      match open_out_bin path with
      | oc ->
          output_string oc data;
          close_out oc;
          Ok ()
      | exception Sys_error msg -> Error msg)

let load path =
  match open_in_bin path with
  | ic ->
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      decode data
  | exception Sys_error msg -> Error msg
