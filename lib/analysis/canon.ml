open Loseq_core

type t = {
  canonical : Pattern.t;
  concrete : Pattern.t;
  back : Name.t Name.Map.t;  (* canonical name -> concrete name *)
}

let make p =
  Wellformed.check_exn p;
  let alphabet = Name.Set.elements (Pattern.alpha p) in
  (* one width for the whole alphabet keeps string order = rank order *)
  let width = max 6 (String.length (string_of_int (List.length alphabet))) in
  let ranked =
    List.mapi
      (fun i nm -> (nm, Name.v (Printf.sprintf "n%0*d" width i)))
      alphabet
  in
  let fwd = Name.Map.of_list ranked in
  let back = Name.Map.of_list (List.map (fun (nm, c) -> (c, nm)) ranked) in
  let rename nm = Name.Map.find nm fwd in
  let canonical =
    Pattern.map_ranges ~trigger:rename
      (fun (r : Pattern.range) -> Pattern.range ~lo:r.lo ~hi:r.hi (rename r.name))
      p
  in
  { canonical; concrete = p; back }

let pattern c = c.canonical
let concrete c = c.concrete
let name c nm = Name.Map.find nm c.back

let trace c tr =
  List.map (fun (e : Trace.event) -> { e with Trace.name = name c e.name }) tr
