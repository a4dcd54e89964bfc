type t = { mutable checkers : Checker.t list }

let create () = { checkers = [] }
let add t c = t.checkers <- c :: t.checkers
let checkers t = List.rev t.checkers
let finalize t = List.iter (fun c -> ignore (Checker.finalize c)) (checkers t)
let all_passed t = List.for_all Checker.passed (checkers t)
let failures t = List.filter (fun c -> not (Checker.passed c)) (checkers t)

let summary t =
  List.map (fun c -> (Checker.name c, Checker.verdict c)) (checkers t)

let summary_strings t =
  List.map
    (fun c ->
      ( Checker.name c,
        Loseq_core.Backend.verdict_to_string (Checker.verdict c) ))
    (checkers t)

let pp ppf t =
  let cs = checkers t in
  Format.fprintf ppf "@[<v>=== verification report (%d properties) ==="
    (List.length cs);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,@[<v2>property: %s@,verdict: %a@,%a@]"
        (Checker.name c) Checker.pp_verdict (Checker.verdict c) Coverage.pp
        (Checker.coverage c))
    cs;
  Format.fprintf ppf "@,overall: %s@]"
    (if all_passed t then "PASS" else "FAIL")

let print t = Format.printf "%a@." pp t
