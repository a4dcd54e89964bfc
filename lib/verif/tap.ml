open Loseq_core
open Loseq_sim

(* Subscribers live in growable arrays kept in subscription order, so
   [emit] walks them front to back without reversing (or allocating)
   anything per event. *)
type subscribers = {
  mutable fns : (int -> unit) array;
  mutable len : int;
}

let subs_empty () = { fns = [||]; len = 0 }

let subs_add s f =
  let cap = Array.length s.fns in
  if s.len = cap then begin
    let fns = Array.make (max 4 (2 * cap)) f in
    Array.blit s.fns 0 fns 0 s.len;
    s.fns <- fns
  end;
  s.fns.(s.len) <- f;
  s.len <- s.len + 1

(* Names to dense ids: a string-specialised table, so a lookup hashes
   the name once and compares with [String.equal], never the
   polymorphic compare. *)
module Ids = Hashtbl.Make (struct
  type t = Name.t

  let equal = Name.equal
  let hash = Name.hash
end)

type t = {
  kernel : Kernel.t;
  record : bool;
  mutable events_rev : Trace.event list;
  (* per-name routing: names interned once per tap into dense ids *)
  ids : int Ids.t;
  mutable by_name : subscribers array;  (* indexed by interned id *)
  mutable names : Name.t array;  (* the name of each interned id *)
  mutable count : int;
}

let create ?(record = true) kernel =
  {
    kernel;
    record;
    events_rev = [];
    ids = Ids.create 16;
    by_name = [||];
    names = [||];
    count = 0;
  }

let kernel t = t.kernel
let now_ps t = Time.to_ps (Kernel.now t.kernel)

let lookup t name =
  match Ids.find t.ids name with id -> id | exception Not_found -> -1

let intern t name =
  match lookup t name with
  | -1 ->
      let id = Ids.length t.ids in
      Ids.replace t.ids name id;
      let cap = Array.length t.by_name in
      if id >= cap then begin
        let grown = max 8 (2 * cap) in
        t.by_name <-
          Array.init grown (fun i ->
              if i < cap then t.by_name.(i) else subs_empty ());
        t.names <-
          Array.init grown (fun i -> if i < cap then t.names.(i) else name)
      end;
      t.names.(id) <- name;
      id
  | id -> id

let name t id = t.names.(id)

(* The one emission body.  [id] is the name's interned id, or -1 for a
   name nobody subscribed to: that event is still counted and recorded,
   and grows no table.  An event record is built only to be recorded;
   subscribers get the time. *)
let emission t id name =
  let time = now_ps t in
  t.count <- t.count + 1;
  if t.record then t.events_rev <- { Trace.name; time } :: t.events_rev;
  if id >= 0 then begin
    let s = t.by_name.(id) in
    for i = 0 to s.len - 1 do
      s.fns.(i) time
    done
  end

let emit_id t id = emission t id t.names.(id)
let emit_name t name = emission t (lookup t name) name
let emit t s = emit_name t (Name.v s)

(* A pre-bound emission port: the name is interned at bind time, so
   per-event emission skips the name hash entirely.  {!emit_id} re-reads
   [t.by_name] on every call — interning another name may replace the
   backing array. *)
let port t name =
  let id = intern t name in
  fun () -> emit_id t id

let subscribe_name t name f =
  let id = intern t name in
  subs_add t.by_name.(id) f

let trace t = List.rev t.events_rev
let count t = t.count
