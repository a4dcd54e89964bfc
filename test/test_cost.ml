(* The Drct cost model must reproduce the paper's Fig. 6 column exactly,
   and the measured instrumentation must follow the published
   Θ-behaviour. *)

open Loseq_core
open Loseq_testutil

(* The six configurations of Fig. 6 with the paper's Drct numbers. *)
let fig6 =
  [
    ("n <<! i", 80, 192);
    ("n[100,60000] <<! i", 80, 192);
    ("{n1, n2, n3, n4} << i", 230, 1132);
    ("{n1, n2, n3, n4, n5} << i", 280, 1568);
    ("n1 => n2 < n3 < n4 within 1000", 296, 1051);
    ("n1 => n2[100,60000] < n3 < n4 within 1000", 296, 1051);
  ]

let test_fig6_exact () =
  List.iter
    (fun (src, ops, bits) ->
      let c = Cost.drct (pat src) in
      Alcotest.(check int) (src ^ " ops") ops c.Cost.ops_per_event;
      Alcotest.(check int) (src ^ " bits") bits c.Cost.space_bits)
    fig6

let test_range_width_irrelevant () =
  (* "The presence of non-trivial ranges has no effect on the
     complexities of our Drct monitors." *)
  let base = Cost.drct (pat "a << i") in
  let wide = Cost.drct (pat "a[100,60000] << i") in
  Alcotest.(check int) "ops" base.Cost.ops_per_event wide.Cost.ops_per_event;
  Alcotest.(check int) "bits" base.Cost.space_bits wide.Cost.space_bits

let test_theta_time () =
  Alcotest.(check int) "max width" 5
    (Cost.time_theta (pat "{a, b, c, d, e} < f << i"));
  Alcotest.(check int) "chain" 1 (Cost.time_theta (pat "a < b < c << i"))

let test_theta_space () =
  Alcotest.(check int) "sum" 6
    (Cost.space_theta (pat "{a, b, c, d, e} < f << i"))

let test_max_counter () =
  Alcotest.(check int) "max v" 60000
    (Cost.max_counter (pat "a[100,60000] < b << i"))

let test_measured_follows_theta_time () =
  (* Measured ops/event on the wide fragment exceed the narrow chain,
     even though both have 5 names total. *)
  let measure src trace = (Cost.measured (pat src) trace).Cost.ops_per_event in
  let wide = measure "{a, b, c, d, e} << i" (tr [ "a"; "b"; "c" ]) in
  let chain = measure "a < b < c < d < e << i" (tr [ "a"; "b"; "c" ]) in
  Alcotest.(check bool) "wide > chain" true (wide > chain)

let test_measured_space_range_independent () =
  let bits src = (Cost.measured (pat src) (tr [ "a" ])).Cost.space_bits in
  (* Counters are fixed-width in the paper's measurement; ours grow by a
     few bits for the 60000 bound but stay within the same order. *)
  let narrow = bits "a << i" and wide = bits "a[100,60000] << i" in
  Alcotest.(check bool) "same magnitude" true
    (wide < narrow + 32 && wide >= narrow)

let qcheck_ops_model_is_affine_in_names =
  qtest ~count:300 "analytic ops = 30 + 50*names (+66 timed)" gen_pattern
    (fun p -> Pattern.to_string p)
    (fun p ->
      let c = Cost.drct p in
      let timed =
        match p with Pattern.Timed _ -> 66 | Pattern.Antecedent _ -> 0
      in
      c.Cost.ops_per_event = 30 + (50 * Pattern.name_count p) + timed)

let qcheck_measured_ops_independent_of_bounds =
  qtest ~count:200 "measured ops do not depend on range widths"
    QCheck2.Gen.(
      let* p = gen_antecedent in
      return p)
    (fun p -> Pattern.to_string p)
    (fun p ->
      (* Widen every range: per-event measured ops on the same accepted
         prefix must not change. *)
      match p with
      | Pattern.Antecedent _ ->
          let p' =
            Pattern.map_ranges
              (fun (r : Pattern.range) ->
                Pattern.range ~lo:r.lo ~hi:(r.hi + 1000) r.name)
              p
          in
          let rng = Random.State.make [| 42 |] in
          let trace = Generate.valid ~rounds:1 ~max_run:0 rng p in
          let ops p = (Cost.measured p trace).Cost.ops_per_event in
          ops p = ops p'
      | Pattern.Timed _ -> true)

let () =
  Alcotest.run "cost"
    [
      ( "figure 6",
        [
          Alcotest.test_case "exact Drct column" `Quick test_fig6_exact;
          Alcotest.test_case "range width irrelevant" `Quick
            test_range_width_irrelevant;
        ] );
      ( "theta",
        [
          Alcotest.test_case "time" `Quick test_theta_time;
          Alcotest.test_case "space" `Quick test_theta_space;
          Alcotest.test_case "max counter" `Quick test_max_counter;
        ] );
      ( "measured",
        [
          Alcotest.test_case "follows theta time" `Quick
            test_measured_follows_theta_time;
          Alcotest.test_case "space range independent" `Quick
            test_measured_space_range_independent;
          qcheck_ops_model_is_affine_in_names;
          qcheck_measured_ops_independent_of_bounds;
        ] );
    ]
