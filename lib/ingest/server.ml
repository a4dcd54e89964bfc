open Loseq_core
open Loseq_verif
module Obs = Loseq_obs.Metrics
module Tr = Loseq_obs.Trace

(* A record is rendered into the sink's one buffer, newline included,
   and handed to the channel whole: under OCaml 5 every channel
   operation takes the channel's lock, so one call per record is the
   cheap way in.  Records then wait in the channel and leave in one
   write per input chunk: the serve loop flushes before every blocking
   wait (input, socket accept, linger), before a checkpoint is saved,
   and on every exit. *)
type sink = { chan : out_channel; buf : Buffer.t }

let sink chan = { chan; buf = Buffer.create 1024 }

let emit_record sink record =
  Buffer.clear sink.buf;
  Json.emit sink.buf record;
  Buffer.add_char sink.buf '\n';
  Buffer.output_buffer sink.chan sink.buf

let violation_record ?speculative ~name (v : Diag.violation) =
  Json.Obj
    ([
       ("type", Json.String "violation");
       ("property", Json.String name);
       ("time", Json.Int v.time);
       ("index", Json.Int v.index);
       ("fragment", Json.Int v.fragment);
       ("message", Json.String (Diag.violation_to_string v));
     ]
    @
    match speculative with
    | Some b -> [ ("speculative", Json.Bool b) ]
    | None -> [])

let retracted_record ~name =
  Json.Obj
    [ ("type", Json.String "retracted"); ("property", Json.String name) ]

(* The flag a signal flips; the read loop checks it between chunks
   (a signal interrupts the blocking select with EINTR). *)
let stop_requested = ref false

let with_signals f =
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> stop_requested := true)) in
  stop_requested := false;
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  (* A metrics scraper that disconnects mid-response would otherwise
     deliver SIGPIPE, whose default disposition kills the process;
     ignored, the write fails with EPIPE as a catchable Unix_error. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe)
    f

exception Input_error of string

(* ---- input formats ----------------------------------------------------- *)

(* A stream carries its decoder and the [emit] that admits its
   [(stream id, time)] pairs: both wire formats reach the host the same
   way. *)
type parser_state =
  | Sniffing of Buffer.t
  | Binary of Codec.Decoder.t * (int -> int -> unit)
  | Csv of Trace_io.Csv.t * (int -> int -> unit)

let check_input = function Ok () -> () | Error msg -> raise (Input_error msg)

(* Route one chunk; the first chunk(s) resolve the format (binary iff
   the stream starts with the LSQB magic).  [wire name] builds the
   emitter of a decoder whose ids [name] maps back; the CSV reader
   interns only the names [known] accepts. *)
let rec feed_chunk state chunk ~known ~wire =
  match !state with
  | Binary (dec, emit) -> check_input (Codec.Decoder.feed_ids dec chunk ~emit)
  | Csv (csv, emit) -> check_input (Trace_io.Csv.feed csv chunk ~emit)
  | Sniffing buf ->
      Buffer.add_string buf chunk;
      let data = Buffer.contents buf in
      let binary = Codec.looks_binary data in
      (* a binary-looking prefix shorter than the magic is still
         ambiguous: keep sniffing *)
      if not (binary && String.length data < String.length Codec.magic) then begin
        (state :=
           if binary then
             let dec = Codec.Decoder.create () in
             Binary (dec, wire (Codec.Decoder.name dec))
           else
             let csv = Trace_io.Csv.create ~keep:known () in
             Csv (csv, wire (Trace_io.Csv.name csv)));
        feed_chunk state data ~known ~wire
      end

(* Still sniffing at end of input means a strict prefix of the magic. *)
let finish_input state =
  match !state with
  | Binary (dec, _) -> check_input (Codec.Decoder.finish dec)
  | Csv (csv, emit) -> check_input (Trace_io.Csv.finish csv ~emit)
  | Sniffing buf ->
      if Buffer.length buf > 0 then
        raise (Input_error "truncated stream: incomplete header")

(* Consult the suite's lateness-robustness certificate before any event
   flows.  Skipped entirely on the default in-order path (lateness 0,
   no --strict-reorder) so plain serving pays nothing; otherwise a
   [reorder-certificate] record states what the configured window is
   certified for, and under strict mode an uncertified window refuses
   to start.  [cert_thunk] defers the (possibly budgeted) analysis to
   when it is actually consulted. *)
let reorder_gate ~lateness ~strict_reorder ~sink cert_thunk =
  let module R = Loseq_analysis.Robust in
  if lateness = 0 && not strict_reorder then Ok ()
  else begin
    let cert : R.certificate = cert_thunk () in
    let robust = R.compare_bound cert.bound (Finite lateness) >= 0 in
    emit_record sink
      (Json.Obj
         [
           ("type", Json.String "reorder-certificate");
           ("lateness", Json.Int lateness);
           ("certified", Json.String (R.bound_to_string cert.bound));
           ("decided", Json.Bool cert.decided);
           ("robust", Json.Bool robust);
         ]);
    if robust || not strict_reorder then Ok ()
    else
      Error
        (Printf.sprintf
           "suite certified for lateness <= %s but hosted with lateness \
            %d; refusing under --strict-reorder"
           (R.bound_to_string cert.bound) lateness)
  end

(* ---- the metrics endpoint ---------------------------------------------- *)

(* A deliberately minimal HTTP/1.1 responder: GET only, one request per
   connection, [Connection: close].  Enough for a Prometheus scraper or
   a curl.  The connection runs inline in the serve loop, so both
   directions carry short socket timeouts: a client that trickles its
   request or refuses to drain the response stalls ingestion for at
   most a few hundred milliseconds before the connection is cut. *)

let http_io_timeout = 0.25

let http_listen ~host ~port =
  let addr =
    if host = "" || host = "*" then Unix.inet_addr_any
    else
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match (Unix.gethostbyname host).h_addr_list with
        | exception Not_found | [||] ->
            raise (Input_error (Printf.sprintf "unknown host %S" host))
        | addrs -> addrs.(0))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (addr, port));
  Unix.listen sock 16;
  sock

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let rec write_all fd buf off len =
  if len > 0 then begin
    let w = Unix.write fd buf off len in
    write_all fd buf (off + w) (len - w)
  end

let http_respond conn ~status ~content_type body =
  let response =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  write_all conn (Bytes.of_string response) 0 (String.length response)

let http_serve_one listener metrics =
  let conn, _ = Unix.accept listener in
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float conn Unix.SO_RCVTIMEO http_io_timeout;
  Unix.setsockopt_float conn Unix.SO_SNDTIMEO http_io_timeout;
  let buf = Bytes.create 4096 in
  let data = Buffer.create 256 in
  let rec read_request () =
    if Buffer.length data > 65536 then ()
    else
      match Unix.read conn buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes data buf 0 n;
          if not (contains (Buffer.contents data) "\r\n\r\n") then
            read_request ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNRESET), _, _)
        ->
          ()
  in
  read_request ();
  let request = Buffer.contents data in
  let first_line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> request
  in
  let path =
    match String.split_on_char ' ' first_line with
    | [ "GET"; target; _ ] -> (
        match String.index_opt target '?' with
        | Some q -> Some (String.sub target 0 q)
        | None -> Some target)
    | _ -> None
  in
  try
    match path with
    | Some "/metrics" ->
        http_respond conn ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Loseq_obs.Expo.prometheus metrics)
    | Some "/stats.json" ->
        http_respond conn ~status:"200 OK" ~content_type:"application/json"
          (Loseq_obs.Expo.json metrics)
    | Some _ ->
        http_respond conn ~status:"404 Not Found" ~content_type:"text/plain"
          "not found: try /metrics or /stats.json\n"
    | None ->
        http_respond conn ~status:"400 Bad Request" ~content_type:"text/plain"
          "bad request\n"
  with Unix.Unix_error _ -> ()

(* ---- server-level instruments ------------------------------------------ *)

type server_obs = {
  bytes_in : Obs.counter;
  records : Obs.counter;
  sessions : Obs.gauge;
  pass : Obs.counter;
  fail : Obs.counter;
  ckpt : Obs.counter;
}

let make_server_obs metrics =
  if not (Obs.is_live metrics) then None
  else
    let verdicts v =
      Obs.counter metrics ~name:"loseq_verdicts_total"
        ~help:"Final property verdicts, by outcome"
        ~labels:[ ("verdict", v) ] ()
    in
    Some
      {
        bytes_in =
          Obs.counter metrics ~name:"loseq_bytes_in_total"
            ~help:"Raw trace bytes read from the input" ();
        records =
          Obs.counter metrics ~name:"loseq_records_decoded_total"
            ~help:"Trace records decoded from the input stream" ();
        sessions =
          Obs.gauge metrics ~name:"loseq_sessions_live"
            ~help:"Monitor sessions currently hosted (0 or 1)" ();
        pass = verdicts "pass";
        fail = verdicts "fail";
        ckpt =
          Obs.counter metrics ~name:"loseq_checkpoint_writes_total"
            ~help:"Checkpoint files written" ();
      }

(* ---- input, endpoint and linger ----------------------------------------- *)

let open_input = function
  | `Stdin -> (Unix.stdin, ignore)
  | `Socket path ->
      if Sys.file_exists path then Sys.remove path;
      let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 1;
      let conn, _ = Unix.accept listener in
      Unix.close listener;
      ( conn,
        fun () ->
          Unix.close conn;
          if Sys.file_exists path then Sys.remove path )

let with_http ~sink ~metrics_addr f =
  let http =
    match metrics_addr with
    | None -> None
    | Some (host, port) ->
        let listener = http_listen ~host ~port in
        (* Report the bound address: with port 0 the kernel picks
           an ephemeral port, and a scraper (or CI) learns it from
           this record rather than guessing. *)
        let bound_host, bound_port =
          match Unix.getsockname listener with
          | Unix.ADDR_INET (a, p) -> (Unix.string_of_inet_addr a, p)
          | _ -> (host, port)
        in
        emit_record sink
          (Json.Obj
             [
               ("type", Json.String "metrics-listening");
               ( "addr",
                 Json.String (Printf.sprintf "%s:%d" bound_host bound_port) );
               ("port", Json.Int bound_port);
             ]);
        Some listener
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun l -> try Unix.close l with Unix.Unix_error _ -> ()) http)
  @@ fun () -> f http

let handle_http listener metrics =
  try http_serve_one listener metrics with Unix.Unix_error _ -> ()

(* Pump chunks from [fd] into [consume] until end of stream or a
   requested stop.  The input and the optional HTTP listener share one
   select, so a scrape is answered between chunks without threads. *)
let stream_loop ~fd ~metrics ~consume http =
  let buf = Bytes.create 65536 in
  let watched = fd :: Option.to_list http in
  let rec loop () =
    if !stop_requested then `Interrupted
    else
      match Unix.select watched [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ -> (
          Option.iter
            (fun l -> if List.memq l readable then handle_http l metrics)
            http;
          if not (List.memq fd readable) then loop ()
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> `Eof
            | n ->
                consume (Bytes.sub_string buf 0 n);
                loop ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* Keep the endpoint up after end of stream so a scraper can still
   collect the final counters; SIGTERM/SIGINT ends the linger (and the
   verdict-borne exit code survives it). *)
let linger ~metrics http =
  match http with
  | Some listener when not !stop_requested ->
      let rec go () =
        if not !stop_requested then
          match Unix.select [ listener ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ :: _, _, _ ->
              handle_http listener metrics;
              go ()
      in
      go ()
  | _ -> ()

let default_metrics ~metrics ~metrics_addr ~stats_interval ~profile_out =
  match metrics with
  | Some m -> m
  | None ->
      (* an exposition surface with nothing behind it is useless, so
         asking for one implies a live registry; likewise a profile
         artifact, whose dispatch histogram lives in the registry *)
      if metrics_addr <> None || stats_interval > 0 || profile_out <> None
      then Obs.create ()
      else Obs.noop

let error_record sink msg =
  emit_record sink
    (Json.Obj [ ("type", Json.String "error"); ("message", Json.String msg) ]);
  flush sink.chan;
  2

(* ---- flight-recorder artifacts ------------------------------------------ *)

let write_or_raise ~path data =
  match Atomic_file.write ~path data with
  | Ok _ -> ()
  | Error msg -> raise (Input_error msg)

(* Written on BOTH exits — end of stream and interruption — so a
   monitor cut down by SIGTERM still leaves its artifacts behind.  The
   trace export format goes by extension: [.ndjson] gets the
   line-oriented record dump, anything else the Chrome trace-event
   JSON Perfetto loads. *)
let write_artifacts ~sink ~metrics ~trace ~trace_out ~profile_out ~checkers =
  (match trace_out with
  | Some path when Tr.is_live trace ->
      let ndjson = Filename.check_suffix path ".ndjson" in
      write_or_raise ~path
        (if ndjson then Tr.to_ndjson trace else Tr.to_chrome trace);
      emit_record sink
        (Json.Obj
           [
             ("type", Json.String "trace");
             ("path", Json.String path);
             ("format", Json.String (if ndjson then "ndjson" else "chrome"));
             ("records", Json.Int (Tr.length trace));
             ("dropped", Json.Int (Tr.dropped trace));
           ])
  | Some _ | None -> ());
  match profile_out with
  | Some path ->
      write_or_raise ~path (Loseq_obs.Profile.render ~metrics ~checkers ());
      emit_record sink
        (Json.Obj
           [
             ("type", Json.String "profile");
             ("path", Json.String path);
             ("checkers", Json.Int (List.length checkers));
           ])
  | None -> ()

(* The minimal causal chain behind a failed verdict, attached to its
   NDJSON record: the frozen provenance ring, delta-debugged down to
   1-minimality against the entry's own pattern. *)
let provenance_field ?backend ~prov ~final_time ~suite name passed =
  match List.find_opt (fun (e : Suite.entry) -> String.equal e.label name) suite with
  | Some entry when not passed ->
      let violation = Provenance.violation_of prov name in
      let chain =
        Provenance.minimize ?backend ?violation ~final_time ~label:name
          entry.pattern
          (Provenance.captured prov name)
      in
      [ ("provenance", Provenance.chain_json ?violation chain) ]
  | _ -> []

(* ---- hosts --------------------------------------------------------------

   One serve loop hosts the suite two ways: buffered (a {!Session}
   behind a reorder buffer, the default) or speculative ([--ooo], a
   {!Loseq_ooo.Engine} applying events on arrival and repairing by
   rollback).  A host carries only what differs between the two; the
   loop below does everything else once. *)

type host = {
  start : (string * Json.t) list;  (** [start] record fields after [properties] *)
  lateness : int;  (** the window the reorder gate certifies *)
  certificate : unit -> Loseq_analysis.Robust.certificate;
  skip : int;  (** leading events a resumed host already accounts for *)
  known : Name.t -> bool;  (** the names the host resolves *)
  wire : (int -> Name.t) -> int -> int -> unit;
      (** the emitter of a stream's [(stream id, time)] pairs, given the
          decoder's id-to-name map *)
  position : unit -> int;  (** events accepted so far *)
  stats : unit -> (string * Json.t) list;
  finalize : unit -> (string * Backend.verdict) list * string list * int;
      (** labelled verdicts, their renderings, and the final time *)
  summary : unit -> (string * Json.t) list;
  save : (string * (unit -> (int, string) result)) option;
      (** checkpoint path and writer *)
  prov : Provenance.t;
}

let buffered ~metrics ~trace ?backend ?latency_sample_rate ~lateness ~window
    ?checkpoint ~resume ?final_time ~sink suite =
  let resuming =
    resume
    && match checkpoint with Some p -> Sys.file_exists p | None -> false
  in
  let session =
    if resuming then
      Checkpoint.resume ~metrics ~trace ?backend ?latency_sample_rate
        ~path:(Option.get checkpoint) suite
    else
      Ok
        (Session.create ~metrics ~trace ?backend ?latency_sample_rate ~lateness
           ~window suite)
  in
  Result.map
    (fun session ->
      (* Always-on verdict provenance: tap-level capture is one bounded
         ring push per alphabet event, and pays for itself the first
         time a Fail needs explaining. *)
      let prov = Provenance.create (Hub.tap (Session.hub session)) suite in
      Session.on_violation session (fun ~name v ->
          Provenance.note_violation prov ~label:name v;
          emit_record sink (violation_record ~name v));
      let counters ~max_seen () =
        let s = Session.stats session
        and r = Reorder.stats (Session.reorder session) in
        [
          ("events", Json.Int s.accepted);
          ("delivered", Json.Int s.delivered);
          ("reordered", Json.Int s.reordered);
          ("dropped_late", Json.Int s.dropped_late);
          ("forced", Json.Int s.forced);
          ("occupancy", Json.Int r.occupancy);
          ("watermark", Json.Int r.watermark);
        ]
        @ if max_seen then [ ("max_seen", Json.Int r.max_seen) ] else []
      in
      let skip = Session.position session in
      {
        start = [ ("resumed", Json.Bool resuming); ("skip", Json.Int skip) ];
        lateness = Session.lateness session;
        certificate = (fun () -> Session.reorder_certificate session);
        skip;
        known = (fun n -> Session.resolve session n >= 0);
        wire = Session.wire session;
        position = (fun () -> Session.position session);
        stats = counters ~max_seen:false;
        finalize =
          (fun () ->
            let report = Session.finalize ?final_time session in
            ( Report.summary report,
              List.map snd (Report.summary_strings report),
              Session.now session ));
        summary = counters ~max_seen:true;
        save =
          Option.map
            (fun path -> (path, fun () -> Checkpoint.save ~path session))
            checkpoint;
        prov;
      })
    session

module Engine = Loseq_ooo.Engine

(* Same wire protocol as the buffered host, plus the speculative
   markers: violation records carry ["speculative"], [retracted]
   records withdraw them, [settled] records mark verdicts the
   watermark has made definitive. *)
let speculative ~metrics ~trace ~lateness ?final_time ~sink suite =
  (* The engine routes no tap, so the provenance recorder is detached
     and fed from the arrival stream; retractions unfreeze the ring. *)
  let prov = Provenance.create_detached suite in
  let notice = function
    | Engine.Violation { label; violation; settled; _ } ->
        Provenance.note_violation prov ~label violation;
        emit_record sink
          (violation_record ~speculative:(not settled) ~name:label violation)
    | Engine.Retracted { label; _ } ->
        Provenance.clear_violation prov ~label;
        emit_record sink (retracted_record ~name:label)
    | Engine.Settled { label; verdict; _ } ->
        emit_record sink
          (Json.Obj
             [
               ("type", Json.String "settled");
               ("property", Json.String label);
               ("passed", Json.Bool (Backend.passed verdict));
               ("verdict", Json.String (Backend.verdict_to_string verdict));
             ])
  in
  let engine =
    Engine.create
      ?metrics:(if Obs.is_live metrics then Some metrics else None)
      ~trace ~notice ~lateness
      (List.map (fun (e : Suite.entry) -> (e.label, e.pattern)) suite)
  in
  let offered = ref 0 in
  (* Each stream id resolves once to its engine gid (-1: foreign to the
     suite) and provenance route. *)
  let wire name =
    let resolve =
      Session.by_stream_id (fun sid ->
          let n = name sid in
          (Engine.gid engine n, Provenance.route prov n))
    in
    fun sid time ->
      let gid, route = resolve sid in
      incr offered;
      (* Ring first, offer second: a violation the offer raises
         synchronously must find its deciding event captured. *)
      Provenance.record prov route ~time;
      ignore (Engine.offer_gid engine ~gid ~time)
  in
  let counters () =
    let s = Engine.stats engine in
    [
      ("events", Json.Int !offered);
      ("applied", Json.Int s.applied);
      ("late", Json.Int s.late);
      ("commute_hits", Json.Int s.commute_hits);
      ("rollbacks", Json.Int s.rollbacks);
      ("replayed", Json.Int s.replayed);
      ("dropped_late", Json.Int s.dropped_late);
    ]
  in
  Ok
    {
      start =
        [ ("mode", Json.String "speculative"); ("lateness", Json.Int lateness) ];
      lateness;
      certificate = (fun () -> Engine.certificate engine);
      skip = 0;
      known = (fun n -> Engine.gid engine n >= 0);
      wire;
      position = (fun () -> !offered);
      stats =
        (fun () ->
          counters ()
          @ [
              ("journal_depth", Json.Int (Engine.journal_depth engine));
              ("watermark", Json.Int (Engine.watermark engine));
              ("settled", Json.Int (Engine.stats engine).settled_events);
            ]);
      finalize =
        (fun () ->
          Engine.finalize ?final_time engine;
          ( Engine.report engine,
            Engine.report_strings engine,
            max 0
              (max (Engine.max_seen engine) (Option.value final_time ~default:0))
          ));
      summary =
        (fun () ->
          let s = Engine.stats engine in
          counters ()
          @ [
              ("max_journal", Json.Int s.max_journal);
              ("watermark", Json.Int (Engine.watermark engine));
            ]);
      save = None;
      prov;
    }

(* ---- the serve loop ---------------------------------------------------- *)

(* Build the host and pass the reorder gate; construction failures
   (ill-formed patterns, backends unfit for the mode) become errors. *)
let setup ~strict_reorder ~sink make_host =
  match make_host () with
  | exception Wellformed.Ill_formed (p, errs) ->
      Error
        (Format.asprintf "ill-formed pattern %a:@ %a" Pattern.pp p
           (Format.pp_print_list Wellformed.pp_error)
           errs)
  | exception Invalid_argument msg -> Error msg
  | result ->
      Result.bind result (fun host ->
          reorder_gate ~lateness:host.lateness ~strict_reorder ~sink
            host.certificate
          |> Result.map (fun () -> host))

let host_loop ~metrics ~metrics_addr ~stats_interval ?backend ~checkpoint_every
    ~trace ~trace_out ~profile_out ~sink ~input suite host =
  let error msg = error_record sink msg in
  let srv_obs = make_server_obs metrics in
  let obs f = Option.iter f srv_obs in
  (* Server-track flight-recorder categories: the admission span
     around each input chunk and the checkpoint-write span (emitting
     into the noop ring is a single branch). *)
  let admit = Tr.intern trace ~track:"ingest" "admit"
  and ckpt = Tr.intern trace ~track:"ingest" "checkpoint" in
  let save_checkpoint () =
    match host.save with
    | None -> ()
    | Some (path, save) -> (
        (* the records of every event the checkpoint accounts for leave
           first: a resume skips those events *)
        flush sink.chan;
        Tr.emit trace ckpt Tr.Span_begin 0;
        match save () with
        | Ok bytes ->
            Tr.emit trace ckpt Tr.Span_end bytes;
            obs (fun o -> Obs.incr o.ckpt);
            emit_record sink
              (Json.Obj
                 [
                   ("type", Json.String "checkpoint");
                   ("path", Json.String path);
                   ("events", Json.Int (host.position ()));
                   ("bytes", Json.Int bytes);
                 ])
        | Error msg ->
            Tr.emit trace ckpt Tr.Span_end 0;
            raise (Input_error msg))
  in
  let artifacts () =
    write_artifacts ~sink ~metrics ~trace ~trace_out ~profile_out
      ~checkers:(Provenance.seen host.prov)
  in
  let offered = ref 0 in
  (* Count one input event; [false] while a resumed host skips what it
     already accounts for. *)
  let fresh () =
    incr offered;
    obs (fun o -> Obs.incr o.records);
    !offered > host.skip
  in
  let admitted () =
    let pos = host.position () in
    if checkpoint_every > 0 && pos mod checkpoint_every = 0 then
      save_checkpoint ();
    if stats_interval > 0 && pos mod stats_interval = 0 then
      emit_record sink
        (Json.Obj (("type", Json.String "stats") :: host.stats ()))
  in
  let wire name =
    let offer = host.wire name in
    fun sid time ->
      if fresh () then begin
        offer sid time;
        admitted ()
      end
  in
  match
    with_signals @@ fun () ->
    with_http ~sink ~metrics_addr @@ fun http ->
    (* a caller learns the metrics port before serve waits for input *)
    flush sink.chan;
    let fd, cleanup = open_input input in
    Fun.protect ~finally:cleanup @@ fun () ->
    obs (fun o -> Obs.set o.sessions 1);
    emit_record sink
      (Json.Obj
         ([
            ("type", Json.String "start");
            ("properties", Json.Int (List.length suite));
          ]
         @ host.start));
    flush sink.chan;
    let state = ref (Sniffing (Buffer.create 8)) in
    let consume chunk =
      obs (fun o -> Obs.add o.bytes_in (String.length chunk));
      Tr.emit trace admit Tr.Span_begin 0;
      feed_chunk state chunk ~known:host.known ~wire;
      Tr.emit trace admit Tr.Span_end (String.length chunk);
      flush sink.chan
    in
    match stream_loop ~fd ~metrics ~consume http with
    | `Interrupted ->
        save_checkpoint ();
        emit_record sink
          (Json.Obj
             [
               ("type", Json.String "interrupted");
               ("events", Json.Int (host.position ()));
             ]);
        artifacts ();
        flush sink.chan;
        0
    | `Eof ->
        finish_input state;
        let verdicts, rendered, final_time = host.finalize () in
        List.iter2
          (fun (name, verdict) rendered ->
            let passed = Backend.passed verdict in
            obs (fun o -> Obs.incr (if passed then o.pass else o.fail));
            emit_record sink
              (Json.Obj
                 ([
                    ("type", Json.String "verdict");
                    ("property", Json.String name);
                    ("passed", Json.Bool passed);
                    ("verdict", Json.String rendered);
                  ]
                 @ provenance_field ?backend ~prov:host.prov ~final_time ~suite
                     name passed)))
          verdicts rendered;
        let passed = List.for_all (fun (_, v) -> Backend.passed v) verdicts in
        obs (fun o -> Obs.set o.sessions 0);
        emit_record sink
          (Json.Obj
             ([ ("type", Json.String "summary"); ("passed", Json.Bool passed) ]
             @ host.summary ()));
        artifacts ();
        flush sink.chan;
        linger ~metrics http;
        if passed then 0 else 1
  with
  | code -> code
  | exception Input_error msg -> error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      error
        (Printf.sprintf "%s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message e))

let serve ?metrics ?metrics_addr ?(stats_interval = 0) ?backend
    ?(lateness = 0) ?(window = 1024) ?checkpoint ?(checkpoint_every = 0)
    ?(resume = false) ?(strict_reorder = false) ?(ooo = false) ?final_time
    ?trace_out ?profile_out ?latency_sample_rate ?(out = stdout) ~input suite =
  let metrics =
    default_metrics ~metrics ~metrics_addr ~stats_interval ~profile_out
  in
  (* The flight recorder exists exactly when someone will read it: the
     noop ring keeps every instrumented hot path on its one-branch
     fast path. *)
  let trace = if trace_out <> None then Tr.create () else Tr.noop in
  let sink = sink out in
  if ooo && (checkpoint <> None || resume) then
    error_record sink
      "--ooo does not support --checkpoint/--resume: speculative state \
       (journal, frontier, unsettled verdicts) is not checkpointable"
  else if ooo && backend <> None then
    error_record sink
      "--ooo does not support --backend: speculative hosting always steps \
       the flat engine"
  else
    match
      setup ~strict_reorder ~sink (fun () ->
          if ooo then
            speculative ~metrics ~trace ~lateness ?final_time ~sink suite
          else
            (* With no backend named, buffered hosting steps the flat
               suite engine directly (the session's default). *)
            buffered ~metrics ~trace ?backend ?latency_sample_rate ~lateness
              ~window ?checkpoint ~resume ?final_time ~sink suite)
    with
    | Error msg -> error_record sink msg
    | Ok host ->
        (* Provenance replays keep the caller's own choice, the flat
           engine when none was named, so failure chains do not depend
           on the hosting mode. *)
        host_loop ~metrics ~metrics_addr ~stats_interval ?backend
          ~checkpoint_every ~trace ~trace_out ~profile_out ~sink ~input suite
          host

(* ---- the producer side ------------------------------------------------- *)

let feed ?(timeout = 5.0) ~path ic =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec connect () =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> Ok ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        connect ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
  in
  match connect () with
  | Error _ as err ->
      Unix.close sock;
      err
  | Ok () -> (
      let buf = Bytes.create 65536 in
      let rec copy total =
        match input ic buf 0 (Bytes.length buf) with
        | 0 -> Ok total
        | n ->
            write_all sock buf 0 n;
            copy (total + n)
      in
      match copy 0 with
      | result ->
          Unix.close sock;
          result
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close sock;
          Error (Printf.sprintf "write %s: %s" path (Unix.error_message e)))
