(* A fixed amount of monitor-like work, timed, to measure how fast the
   host runs right now.  servebench/run.py divides its timings by these.

   Usage: calib REPS.  Each rep decodes a CSV-like text of event names,
   interns every name in a hash table, steps a table-driven automaton
   per event, keeps a short-lived list of recent events and renders a
   record for some of them: the kinds of work `loseq serve` does per
   event.  A rep prints "<wall ns> <cpu ns>" on a line of its own.

   The inputs are fixed, so every rep does the same work on every run.
   Do not change this file between measurements that are compared: the
   scaled figures of servebench are relative to it. *)

let names = 512
let states = 1024
let events = 200_000

let input =
  let b = Buffer.create (events * 16) in
  let x = ref 12345 in
  for i = 1 to events do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    Printf.bprintf b "%d,ev_%d\n" (i * 10) (!x lsr 7 mod names)
  done;
  Buffer.contents b

let table =
  let x = ref 987654 in
  Array.init (states * names) (fun _ ->
      x := (!x * 1103515245 + 12345) land 0x3fffffff;
      !x lsr 5 mod states)

let rep () =
  let ids = Hashtbl.create 64 in
  let out = Buffer.create 4096 in
  let state = ref 0 and recent = ref [] and kept = ref 0 and sum = ref 0 in
  let len = String.length input in
  let pos = ref 0 in
  while !pos < len do
    let comma = String.index_from input !pos ',' in
    let nl = String.index_from input comma '\n' in
    let time = int_of_string (String.sub input !pos (comma - !pos)) in
    let name = String.sub input (comma + 1) (nl - comma - 1) in
    let id =
      match Hashtbl.find_opt ids name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids name id;
          id
    in
    state := table.((!state * names) + id);
    recent := (time, id) :: !recent;
    incr kept;
    if !kept >= 32 then (
      List.iter (fun (t, i) -> sum := !sum + t + i) !recent;
      recent := [];
      kept := 0);
    if !state land 63 = 0 then (
      Buffer.clear out;
      Printf.bprintf out "{\"type\":\"step\",\"time\":%d,\"name\":%S}" time name;
      sum := !sum + Buffer.length out);
    pos := nl + 1
  done;
  !sum + !state

let () =
  let reps = int_of_string Sys.argv.(1) in
  let check = ref None in
  for _ = 1 to reps do
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    let r = rep () in
    let w1 = Unix.gettimeofday () and c1 = Sys.time () in
    (match !check with
    | None -> check := Some r
    | Some r0 -> if r <> r0 then failwith "calib: reps disagree");
    Printf.printf "%.0f %.0f\n%!" ((w1 -. w0) *. 1e9) ((c1 -. c0) *. 1e9)
  done
