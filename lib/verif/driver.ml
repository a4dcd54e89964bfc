open Loseq_core
open Loseq_sim

type t = {
  kernel : Kernel.t;
  bindings : (Name.t, unit -> unit) Hashtbl.t;
  mutable performed : int;
}

exception Unbound of Name.t

let () =
  Printexc.register_printer (function
    | Unbound n -> Some (Printf.sprintf "Driver.Unbound %S" (Name.to_string n))
    | _ -> None)

let create kernel = { kernel; bindings = Hashtbl.create 16; performed = 0 }
let bind t name action = Hashtbl.replace t.bindings (Name.v name) action
let bound t name = Hashtbl.mem t.bindings name

let action_of t name =
  match Hashtbl.find_opt t.bindings name with
  | Some action -> action
  | None -> raise (Unbound name)

let default_gap = (Time.ns 100, Time.ns 300)

let drive_sequence ?(gap = default_gap) t names =
  (* Check bindings eagerly so Unbound surfaces at call time, not in the
     middle of a simulation. *)
  List.iter (fun name -> ignore (action_of t name : unit -> unit)) names;
  let lo, hi = gap in
  Kernel.spawn ~name:"driver" t.kernel (fun () ->
      List.iter
        (fun name ->
          Kernel.wait_loose t.kernel lo hi;
          (action_of t name) ();
          t.performed <- t.performed + 1)
        names)

let drive ?(seed = 0xd21e) ?(rounds = 3) ?gap t p =
  Wellformed.check_exn p;
  Name.Set.iter
    (fun name -> ignore (action_of t name : unit -> unit))
    (Pattern.alpha p);
  let rng = Random.State.make [| seed |] in
  let trace = Generate.valid ~rounds rng p in
  drive_sequence ?gap t (Trace.names trace)

let drive_monitored ?backend ?seed ?rounds ?gap t tap p =
  Wellformed.check_exn p;
  (* Alphabet names without an explicit binding default to emitting the
     abstract event on the tap, so the generated stimulus is observable
     even before the design is wired in. *)
  Name.Set.iter
    (fun name ->
      if not (Hashtbl.mem t.bindings name) then
        Hashtbl.replace t.bindings name (fun () -> Tap.emit_name tap name))
    (Pattern.alpha p);
  let checker = Hub.add ?backend (Hub.create tap) p in
  drive ?seed ?rounds ?gap t p;
  checker

let actions_performed t = t.performed
