open Loseq_core
module Kernel = Loseq_sim.Kernel
module Time = Loseq_sim.Time

type host = {
  members : int array;
  kernel : Kernel.t;
  tap : Tap.t;
  checkers : Checker.t array;
  alphabet : Name.Set.t;
}

let validate_plan plan n =
  let seen = Array.make n false in
  List.iter
    (List.iter (fun i ->
         if i < 0 || i >= n then
           invalid_arg "Sharded.run: plan names a checker out of range";
         if seen.(i) then
           invalid_arg "Sharded.run: plan lists a checker twice";
         seen.(i) <- true))
    plan;
  Array.iteri
    (fun i covered ->
      if not covered then
        invalid_arg
          (Printf.sprintf "Sharded.run: plan misses checker %d" i))
    seen

let run ?metrics ?final_time ~plan suite trace =
  let entries = Array.of_list (Suite.entries_of suite) in
  let n = Array.length entries in
  validate_plan plan n;
  (* Hosted replay never moves a kernel back, so a time stamp earlier
     than its predecessor would be judged at the later time. *)
  if not (Trace.is_chronological trace) then
    invalid_arg "Sharded.run: trace is not chronological";
  let eng = Flat.compile (Array.to_list entries) in
  let hosts =
    List.filter_map
      (fun members ->
        match members with
        | [] -> None
        | _ ->
            (* The shard's engine is a slice of the suite's slab; its
               hub re-interns only the slice's names. *)
            let sub = Flat.slice eng members in
            let views = Backend.flat_engine_views sub in
            let kernel = Kernel.create () in
            let tap = Tap.create ~record:false kernel in
            let hub = Hub.create ?metrics tap in
            let checkers = Array.of_list (Hub.host_flat hub sub views) in
            let alphabet =
              List.fold_left
                (fun acc i ->
                  Name.Set.union acc (Pattern.alpha (snd entries.(i))))
                Name.Set.empty members
            in
            Some { members = Array.of_list members; kernel; tap; checkers;
                   alphabet })
      plan
  in
  (* Deliver in trace order, each event only to the shards whose
     alphabet slice contains it; each shard's private kernel advances
     first so its deadline wheel fires en route, exactly as in a live
     simulation. *)
  List.iter
    (fun (e : Trace.event) ->
      List.iter
        (fun h ->
          if Name.Set.mem e.name h.alphabet then begin
            let until = Time.ps e.time in
            if Time.( < ) (Kernel.now h.kernel) until then
              Kernel.run ~until h.kernel;
            Tap.emit_name h.tap e.name
          end)
        hosts)
    trace;
  (* The sequencer stub: finalize every shard at the full trace's end
     time and merge verdicts back into suite order. *)
  let now =
    match final_time with Some t -> t | None -> Trace.end_time trace
  in
  let verdicts = Array.make n true in
  List.iter
    (fun h ->
      let until = Time.ps now in
      if Time.( < ) (Kernel.now h.kernel) until then Kernel.run ~until h.kernel;
      Array.iteri
        (fun k i ->
          verdicts.(i) <-
            Backend.passed (Checker.finalize_at ~now h.checkers.(k)))
        h.members)
    hosts;
  Array.to_list (Array.mapi (fun i (label, _) -> (label, verdicts.(i))) entries)
