type t = int

let zero = 0

let scaled label n =
  if n < 0 then invalid_arg (Printf.sprintf "Time.%s: negative time" label)

let ps n =
  scaled "ps" n;
  n

let ns n =
  scaled "ns" n;
  n * 1_000

let us n =
  scaled "us" n;
  n * 1_000_000

let ms n =
  scaled "ms" n;
  n * 1_000_000_000

let sec n =
  scaled "sec" n;
  n * 1_000_000_000_000

let to_ps t = t
let to_ns_float t = float_of_int t /. 1_000.
let add = ( + )
let sub a b =
  let d = a - b in
  if d > 0 then d else 0
let mul t k = t * k
(* Annotated at [int] so each compiles to an inline integer test, not a
   call into the polymorphic comparison primitives. *)
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

let pp ppf t =
  let units = [ (1_000_000_000_000, "s"); (1_000_000_000, "ms");
                (1_000_000, "us"); (1_000, "ns"); (1, "ps") ] in
  let rec pick = function
    | [ (_, u) ] -> (1, u)
    | (scale, u) :: rest -> if t mod scale = 0 then (scale, u) else pick rest
    | [] -> (1, "ps")
  in
  if t = 0 then Format.pp_print_string ppf "0 s"
  else
    let scale, unit_name = pick units in
    Format.fprintf ppf "%d %s" (t / scale) unit_name

let to_string t = Format.asprintf "%a" pp t
