(* The trace generator against both references: traces generated valid
   are accepted, and traces generated violating are rejected, by the
   declarative semantics of Section 4 and by the Drct monitor.  That the
   two references agree on every trace is test_oracle's job. *)

open Loseq_core
open Loseq_testutil

let monitor_accepts ?final_time p trace =
  match Monitor.run ?final_time p trace with
  | Monitor.Running | Monitor.Satisfied -> true
  | Monitor.Violated _ -> false

let qcheck_valid_accepted =
  qtest ~count:1500 "generated valid traces are accepted by both"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let* seed = int_bound 1_000_000 in
      let* rounds = int_range 1 4 in
      return (p, seed, rounds))
    (fun (p, seed, rounds) ->
      Printf.sprintf "%s seed=%d rounds=%d" (Pattern.to_string p) seed rounds)
    (fun (p, seed, rounds) ->
      let rng = Random.State.make [| seed |] in
      let trace = Generate.valid ~rounds rng p in
      Semantics.holds p trace && monitor_accepts p trace)

let qcheck_violating_rejected =
  qtest ~count:800 "generated violating traces are rejected by both"
    QCheck2.Gen.(
      let* p = gen_pattern in
      let* seed = int_bound 1_000_000 in
      return (p, seed))
    (fun (p, seed) -> Printf.sprintf "%s seed=%d" (Pattern.to_string p) seed)
    (fun (p, seed) ->
      let rng = Random.State.make [| seed |] in
      match Generate.violating rng p with
      | None -> true (* no mutation found; vacuous *)
      | Some trace ->
          let final_time = Trace.end_time trace + 1_000 in
          (not (Semantics.holds ~final_time p trace))
          && not (monitor_accepts ~final_time p trace))

let () =
  Alcotest.run "equivalence"
    [
      ( "property-based",
        [ qcheck_valid_accepted; qcheck_violating_rejected ] );
    ]
