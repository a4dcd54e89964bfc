open Loseq_core
open Loseq_sim

let intervals ~from ~until trace =
  let rec loop pending acc = function
    | [] -> List.rev acc
    | (e : Trace.event) :: rest ->
        if Name.equal e.name from then loop (Some e.time) acc rest
        else if Name.equal e.name until then
          match pending with
          | Some t0 -> loop None ((e.time - t0) :: acc) rest
          | None -> loop None acc rest
        else loop pending acc rest
  in
  loop None [] trace

type summary = {
  count : int;
  min_ps : int;
  max_ps : int;
  mean_ps : float;
  p50_ps : int;
  p90_ps : int;
}

let percentile samples fraction =
  if samples = [] then invalid_arg "Latency.percentile: empty sample";
  if fraction < 0. || fraction > 1. then
    invalid_arg "Latency.percentile: fraction out of [0,1]";
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank =
    Stdlib.min (n - 1)
      (Stdlib.max 0 (int_of_float (ceil (fraction *. float_of_int n)) - 1))
  in
  List.nth sorted rank

let summarize = function
  | [] -> None
  | samples ->
      let n = List.length samples in
      Some
        {
          count = n;
          min_ps = List.fold_left Stdlib.min max_int samples;
          max_ps = List.fold_left Stdlib.max min_int samples;
          mean_ps =
            float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int n;
          p50_ps = percentile samples 0.5;
          p90_ps = percentile samples 0.9;
        }

let suggest_deadline ?(slack = 0.5) samples =
  match summarize samples with
  | None -> None
  | Some s ->
      Some (int_of_float (ceil (float_of_int s.max_ps *. (1. +. slack))))

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d min=%a max=%a mean=%a p50=%a p90=%a" s.count Time.pp
    (Time.ps s.min_ps) Time.pp (Time.ps s.max_ps) Time.pp
    (Time.ps (int_of_float s.mean_ps))
    Time.pp (Time.ps s.p50_ps) Time.pp (Time.ps s.p90_ps)

type t = {
  from : Name.t;
  until : Name.t;
  mutable pending : int option;
  mutable collected_rev : int list;
  mutable watchers : (int * (int -> unit)) list;
}

let create ~from ~until tap =
  let t =
    { from; until; pending = None; collected_rev = []; watchers = [] }
  in
  (* Alphabet-routed: the collector is only invoked for its two
     endpoint names, however busy the tap is. *)
  Tap.subscribe_name tap t.from (fun time -> t.pending <- Some time);
  Tap.subscribe_name tap t.until (fun time ->
      (match t.pending with
      | Some t0 ->
          let interval = time - t0 in
          t.collected_rev <- interval :: t.collected_rev;
          List.iter
            (fun (threshold, callback) ->
              if interval > threshold then callback interval)
            t.watchers
      | None -> ());
      t.pending <- None);
  t

let durations t = List.rev t.collected_rev
let summary t = summarize (durations t)

let watch t ~threshold callback =
  t.watchers <- (Time.to_ps threshold, callback) :: t.watchers
