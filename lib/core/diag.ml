type reason =
  | Before_name
  | After_name
  | Overflow of Pattern.range
  | Underflow of Pattern.range
  | Reentered of Pattern.range
  | Missing of Pattern.range
  | Empty_fragment
  | Trigger_early
  | Deadline_miss of { started : int; deadline : int; now : int }
  | Late_conclusion of { deadline : int; at : int }
  | Foreign of Name.t
  | Formula_falsified

type violation = {
  name : Name.t option;
  time : int;
  index : int;
  fragment : int;
  reason : reason;
}

(* One text per message, written into a [Buffer]: the NDJSON records of
   [serve] render a message per violation, and the [Format] printers
   below wrap the same text. *)

let add_int = Json.add_int

let add_range buf (r : Pattern.range) =
  Buffer.add_string buf (Name.to_string r.name);
  if not (r.lo = 1 && r.hi = 1) then begin
    Buffer.add_char buf '[';
    add_int buf r.lo;
    Buffer.add_char buf ',';
    add_int buf r.hi;
    Buffer.add_char buf ']'
  end

let add_reason buf = function
  | Before_name -> Buffer.add_string buf "name of an earlier fragment"
  | After_name -> Buffer.add_string buf "name of a later fragment"
  | Overflow r ->
      Buffer.add_string buf "more than ";
      add_int buf r.hi;
      Buffer.add_string buf " occurrence(s) of ";
      Buffer.add_string buf (Name.to_string r.name)
  | Underflow r ->
      Buffer.add_string buf "block of ";
      Buffer.add_string buf (Name.to_string r.name);
      Buffer.add_string buf " ended before ";
      add_int buf r.lo;
      Buffer.add_string buf " occurrence(s)"
  | Reentered r ->
      Buffer.add_string buf "second block for range ";
      add_range buf r
  | Missing r ->
      Buffer.add_string buf "required range ";
      add_range buf r;
      Buffer.add_string buf " never occurred"
  | Empty_fragment ->
      Buffer.add_string buf "disjunctive fragment matched no range"
  | Trigger_early ->
      Buffer.add_string buf "trigger before its antecedent was observed"
  | Deadline_miss { started; deadline; now } ->
      Buffer.add_string buf "conclusion not finished by t=";
      add_int buf deadline;
      Buffer.add_string buf " (premise ended at ";
      add_int buf started;
      Buffer.add_string buf ", checked at ";
      add_int buf now;
      Buffer.add_char buf ')'
  | Late_conclusion { deadline; at } ->
      Buffer.add_string buf "conclusion event at t=";
      add_int buf at;
      Buffer.add_string buf " after deadline t=";
      add_int buf deadline
  | Foreign n ->
      Buffer.add_string buf "foreign event ";
      Buffer.add_string buf (Name.to_string n)
  | Formula_falsified ->
      Buffer.add_string buf "PSL residual obligation falsified"

let add_violation buf v =
  Buffer.add_string buf "violation at t=";
  add_int buf v.time;
  (match v.name with
  | Some n ->
      Buffer.add_string buf " on ";
      Buffer.add_string buf (Name.to_string n);
      Buffer.add_string buf " (event #";
      add_int buf v.index;
      Buffer.add_char buf ')'
  | None -> ());
  Buffer.add_string buf ", fragment ";
  add_int buf v.fragment;
  Buffer.add_string buf ": ";
  add_reason buf v.reason

let render add x =
  let buf = Buffer.create 96 in
  add buf x;
  Buffer.contents buf

let violation_to_string v = render add_violation v

(* The message holds no break hint, so printing it as one string is
   what the former field-by-field printers printed; the violation keeps
   its h box, whose opening is where [Format] may break a line. *)
let pp_reason ppf r = Format.pp_print_string ppf (render add_reason r)
let pp_violation ppf v = Format.fprintf ppf "@[<h>%s@]" (violation_to_string v)

let equal_reason (a : reason) (b : reason) = a = b
