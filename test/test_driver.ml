open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_testutil

let test_unbound_raises_immediately () =
  let kernel = Kernel.create () in
  let driver = Driver.create kernel in
  Driver.bind driver "a" ignore;
  (* 'i' unbound: drive must fail before spawning anything. *)
  match Driver.drive driver (pat "a << i") with
  | () -> Alcotest.fail "expected Unbound"
  | exception Driver.Unbound n ->
      Alcotest.(check string) "which name" "i" (Name.to_string n)

let test_drive_emits_satisfying_sequences () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let driver = Driver.create kernel in
  let p = pat "{set_a, set_b[1,3]} <<! commit" in
  List.iter
    (fun nm -> Driver.bind driver nm (fun () -> Tap.emit tap nm))
    [ "set_a"; "set_b"; "commit" ];
  let checker = Hub.add (Hub.create tap) p in
  Driver.drive ~rounds:5 driver p;
  Kernel.run kernel;
  Alcotest.(check bool) "checker green" true (Checker.passed checker);
  Alcotest.(check bool) "five rounds of actions" true
    (Driver.actions_performed driver >= 15);
  Alcotest.(check int) "every action observed"
    (Driver.actions_performed driver)
    (Tap.count tap)

let test_drive_sequence_violating () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let driver = Driver.create kernel in
  let p = pat "{set_a, set_b} << commit" in
  List.iter
    (fun nm -> Driver.bind driver nm (fun () -> Tap.emit tap nm))
    [ "set_a"; "set_b"; "commit" ];
  let checker = Hub.add (Hub.create tap) p in
  Driver.drive_sequence driver (List.map name [ "set_a"; "commit" ]);
  Kernel.run kernel;
  Alcotest.(check bool) "violation caught" false (Checker.passed checker)

let test_loose_gaps_advance_time () =
  let kernel = Kernel.create () in
  let driver = Driver.create kernel in
  Driver.bind driver "x" ignore;
  Driver.drive_sequence ~gap:(Time.ns 50, Time.ns 60) driver
    (List.map name [ "x"; "x"; "x" ]);
  Kernel.run kernel;
  let now = Time.to_ps (Kernel.now kernel) in
  Alcotest.(check bool) "3 gaps in [150,180] ns" true
    (now >= 150_000 && now <= 180_000)

let test_drive_real_registers () =
  (* The last mile: the pattern drives actual TLM register writes into
     the IPU, and the interface monitor judges the IPU's own events. *)
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let bus = Loseq_platform.Bus.create () in
  let mem = Loseq_platform.Memory.create ~size:65536 () in
  Loseq_platform.Bus.map bus ~base:0 ~size:65536
    (Loseq_platform.Memory.target mem);
  let dma = Tlm.initiator () in
  Tlm.bind dma (Loseq_platform.Bus.target bus);
  let ipu =
    Loseq_platform.Ipu.create kernel tap ~bus:dma ~on_irq:(fun () -> ())
  in
  let regs = Tlm.initiator () in
  Tlm.bind regs (Loseq_platform.Ipu.regs ipu);
  let driver = Driver.create kernel in
  let write offset value () = ignore (Tlm.write_word regs offset value) in
  Driver.bind driver "set_imgAddr" (write 0x00 0x100);
  Driver.bind driver "set_glAddr" (write 0x04 0x1000);
  Driver.bind driver "set_glSize" (write 0x08 3);
  Driver.bind driver "start" (write 0x0C 1);
  let property = pat "{set_imgAddr, set_glAddr, set_glSize} << start" in
  let checker = Hub.add (Hub.create tap) property in
  Driver.drive ~rounds:1 driver property;
  Kernel.run kernel;
  Alcotest.(check bool) "monitor green on real traffic" true
    (Checker.passed checker);
  Alcotest.(check int) "IPU actually ran" 1
    (Loseq_platform.Ipu.recognitions ipu)

let qcheck_driver_traffic_always_green =
  qtest ~count:150 "driven stimuli never violate their own pattern"
    QCheck2.Gen.(
      let* p = gen_antecedent in
      let* seed = int_bound 100000 in
      return (p, seed))
    (fun (p, seed) -> Printf.sprintf "%s seed=%d" (Pattern.to_string p) seed)
    (fun (p, seed) ->
      let kernel = Kernel.create () in
      let tap = Tap.create kernel in
      let driver = Driver.create kernel in
      Name.Set.iter
        (fun nm ->
          Driver.bind driver (Name.to_string nm) (fun () ->
              Tap.emit_name tap nm))
        (Pattern.alpha p);
      let checker = Hub.add (Hub.create tap) p in
      Driver.drive ~seed ~rounds:2 driver p;
      Kernel.run kernel;
      Checker.passed checker)

(* drive_monitored: auto-binds unbound names to tap emission, attaches
   the checker itself, and the loop stays green end to end. *)
let test_drive_monitored () =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let driver = Driver.create kernel in
  let p = pat "{set_a, set_b} <<! commit" in
  let checker = Driver.drive_monitored ~rounds:4 driver tap p in
  Kernel.run kernel;
  Alcotest.(check bool) "checker green" true (Checker.passed checker);
  Alcotest.(check int) "every auto-bound action observed"
    (Driver.actions_performed driver)
    (Tap.count tap);
  Alcotest.(check bool) "four rounds" true
    (Driver.actions_performed driver >= 12)

let () =
  Alcotest.run "driver"
    [
      ( "driving",
        [
          Alcotest.test_case "unbound" `Quick test_unbound_raises_immediately;
          Alcotest.test_case "drive_monitored closed loop" `Quick
            test_drive_monitored;
          Alcotest.test_case "satisfying sequences" `Quick
            test_drive_emits_satisfying_sequences;
          Alcotest.test_case "violating sequence" `Quick
            test_drive_sequence_violating;
          Alcotest.test_case "loose gaps" `Quick test_loose_gaps_advance_time;
          Alcotest.test_case "real registers" `Quick test_drive_real_registers;
          qcheck_driver_traffic_always_green;
        ] );
    ]
