open Loseq_core
open Loseq_sim
open Loseq_verif
open Loseq_platform

(* ---- device-level tests ----------------------------------------------- *)

let test_intc_mask_logic () =
  let k = Kernel.create () in
  let intc = Intc.create ~lines:4 k in
  Intc.raise_line intc 2;
  Alcotest.(check int) "pending bit 2" 0b100 (Intc.pending intc);
  Intc.raise_line intc 0;
  Alcotest.(check int) "pending bits" 0b101 (Intc.pending intc)

let test_intc_regs () =
  let k = Kernel.create () in
  let intc = Intc.create ~lines:4 k in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Intc.regs intc);
  Intc.raise_line intc 1;
  let status, _ = Tlm.read_word ini 0x0 in
  Alcotest.(check int) "status" 0b10 status;
  (* Mask line 1 via ENABLE, pending hidden. *)
  let (_ : Time.t) = Tlm.write_word ini 0x4 0b01 in
  let status, _ = Tlm.read_word ini 0x0 in
  Alcotest.(check int) "masked" 0 status;
  (* Unmask and ack. *)
  let (_ : Time.t) = Tlm.write_word ini 0x4 0b11 in
  let (_ : Time.t) = Tlm.write_word ini 0x8 0b10 in
  let status, _ = Tlm.read_word ini 0x0 in
  Alcotest.(check int) "acked" 0 status

let test_intc_bad_line () =
  let k = Kernel.create () in
  let intc = Intc.create ~lines:2 k in
  match Intc.raise_line intc 5 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_timer_one_shot () =
  let k = Kernel.create () in
  let fired = ref [] in
  let tmr =
    Timer_dev.create k ~on_expire:(fun () ->
        fired := Time.to_ps (Kernel.now k) :: !fired)
  in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Timer_dev.regs tmr);
  Kernel.spawn k (fun () ->
      let (_ : Time.t) = Tlm.write_word ini 0x0 100 in
      let (_ : Time.t) = Tlm.write_word ini 0x4 1 in
      ());
  Kernel.run k;
  Alcotest.(check int) "fired once" 1 (List.length !fired);
  Alcotest.(check bool) "stopped" false (Timer_dev.running tmr)

let test_timer_periodic_and_stop () =
  let k = Kernel.create () in
  let count = ref 0 in
  let tmr = Timer_dev.create k ~on_expire:(fun () -> incr count) in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Timer_dev.regs tmr);
  Kernel.spawn k (fun () ->
      let (_ : Time.t) = Tlm.write_word ini 0x0 100 in
      let (_ : Time.t) = Tlm.write_word ini 0x4 0b11 in
      Kernel.wait_for k (Time.ns 550);
      let (_ : Time.t) = Tlm.write_word ini 0x4 0 in
      ());
  Kernel.run ~until:(Time.us 2) k;
  Alcotest.(check int) "five periods" 5 !count

let test_timer_restart_cancels_previous () =
  let k = Kernel.create () in
  let fired = ref [] in
  let tmr =
    Timer_dev.create k ~on_expire:(fun () ->
        fired := Time.to_ps (Kernel.now k) :: !fired)
  in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Timer_dev.regs tmr);
  Kernel.spawn k (fun () ->
      let (_ : Time.t) = Tlm.write_word ini 0x0 1000 in
      let (_ : Time.t) = Tlm.write_word ini 0x4 1 in
      Kernel.wait_for k (Time.ns 500);
      (* Restart with a shorter load: the first countdown must die. *)
      let (_ : Time.t) = Tlm.write_word ini 0x0 100 in
      let (_ : Time.t) = Tlm.write_word ini 0x4 1 in
      ());
  Kernel.run k;
  Alcotest.(check (list int)) "one expiry at 600ns" [ 600_000 ] !fired

let test_gpio_press_emits_and_latches () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let irqs = ref 0 in
  let gpio = Gpio.create k tap ~on_irq:(fun () -> incr irqs) in
  Gpio.press gpio 3;
  Alcotest.(check int) "irq" 1 !irqs;
  Alcotest.(check int) "press count" 1 (Gpio.presses gpio);
  let ini = Tlm.initiator () in
  Tlm.bind ini (Gpio.regs gpio);
  let status, _ = Tlm.read_word ini 0x0 in
  Alcotest.(check bool) "valid bit + id" true
    (status land 0xff = 3 && status land (1 lsl 31) <> 0);
  let (_ : Time.t) = Tlm.write_word ini 0x4 0 in
  let status, _ = Tlm.read_word ini 0x0 in
  Alcotest.(check int) "cleared" 0 status;
  Alcotest.(check int) "tap saw button" 1 (Tap.count tap)

let test_lock_events () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let lock = Lock.create k tap in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Lock.regs lock);
  let (_ : Time.t) = Tlm.write_word ini 0x0 1 in
  Alcotest.(check bool) "open" true (Lock.is_open lock);
  let (_ : Time.t) = Tlm.write_word ini 0x0 1 in
  (* Idempotent: no second event. *)
  let (_ : Time.t) = Tlm.write_word ini 0x0 0 in
  Alcotest.(check bool) "closed" false (Lock.is_open lock);
  Alcotest.(check int) "open count" 1 (Lock.open_count lock);
  Alcotest.(check (list string)) "tap events" [ "lock_open"; "lock_close" ]
    (List.map Name.to_string (Trace.names (Tap.trace tap)))

let test_sensor_capture_dma () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let bus = Bus.create () in
  let mem = Memory.create ~size:4096 () in
  Bus.map bus ~base:0 ~size:4096 (Memory.target mem);
  let dma = Tlm.initiator () in
  Tlm.bind dma (Bus.target bus);
  let sensor = Sensor.create k tap ~bus:dma in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Sensor.regs sensor);
  Kernel.spawn k (fun () ->
      let (_ : Time.t) = Tlm.write_word ini 0x0 0x100 in
      let (_ : Time.t) = Tlm.write_word ini 0x4 8 in
      let (_ : Time.t) = Tlm.write_word ini 0x8 1 in
      let rec poll () =
        let status, _ = Tlm.read_word ini 0xC in
        if status <> 2 then begin
          Kernel.wait_for k (Time.us 1);
          poll ()
        end
      in
      poll ());
  Kernel.run k;
  Alcotest.(check int) "one capture" 1 (Sensor.captures sensor);
  (* The frame landed in memory: first word is the capture signature. *)
  Alcotest.(check int) "signature" (0x1000 * 31) (Memory.read_word mem 0x100)

let test_ipu_event_sequence () =
  let k = Kernel.create () in
  let tap = Tap.create k in
  let bus = Bus.create () in
  let mem = Memory.create ~size:65536 () in
  Bus.map bus ~base:0 ~size:65536 (Memory.target mem);
  let dma = Tlm.initiator () in
  Tlm.bind dma (Bus.target bus);
  let irqs = ref 0 in
  let ipu = Ipu.create k tap ~bus:dma ~on_irq:(fun () -> incr irqs) in
  let ini = Tlm.initiator () in
  Tlm.bind ini (Ipu.regs ipu);
  (* Enroll a matching gallery entry. *)
  Memory.write_word mem 0x100 0xbeef;
  Memory.write_word mem 0x1000 0xbeef;
  Kernel.spawn k (fun () ->
      let (_ : Time.t) = Tlm.write_word ini 0x00 0x100 in
      let (_ : Time.t) = Tlm.write_word ini 0x04 0x1000 in
      let (_ : Time.t) = Tlm.write_word ini 0x08 4 in
      let (_ : Time.t) = Tlm.write_word ini 0x0C 1 in
      ());
  Kernel.run k;
  Alcotest.(check int) "irq raised" 1 !irqs;
  Alcotest.(check bool) "matched" true (Ipu.last_match ipu);
  let names = List.map Name.to_string (Trace.names (Tap.trace tap)) in
  Alcotest.(check (list string)) "interface sequence"
    ([ "set_imgAddr"; "set_glAddr"; "set_glSize"; "start" ]
    @ [ "read_img"; "read_img"; "read_img"; "read_img"; "set_irq" ])
    names

(* ---- full-SoC scenarios ------------------------------------------------ *)

let run_scenario config =
  let soc = Soc.create ~config () in
  let report = Soc.attach_standard_checkers soc in
  Soc.run soc;
  Report.finalize report;
  (soc, report)

(* The three properties are one suite: one engine, stepped
   engine-direct. *)
let test_standard_hub_one_engine () =
  let hub = Soc.standard_hub (Soc.create ()) in
  Alcotest.(check int) "three checkers" 3 (Hub.size hub);
  match Hub.engine hub with
  | Some eng -> Alcotest.(check int) "one engine of three" 3 (Flat.size eng)
  | None -> Alcotest.fail "standard hub hosted per checker"

let test_soc_correct_firmware () =
  let soc, report = run_scenario Soc.default_config in
  Alcotest.(check bool) "all properties pass" true (Report.all_passed report);
  Alcotest.(check int) "three recognitions" 3
    (Ipu.recognitions (Soc.ipu soc));
  Alcotest.(check int) "matches on even captures" 2
    (Cpu.matches_seen (Soc.cpu soc));
  Alcotest.(check bool) "door opened" true (Lock.open_count (Soc.lock soc) >= 1);
  Alcotest.(check bool) "lcdc refreshed" true (Lcdc.refreshes (Soc.lcdc soc) > 0);
  Alcotest.(check bool) "plenty of events" true (Tap.count (Soc.tap soc) > 300);
  (* The TMR1 system tick interleaves real interrupt traffic that the
     monitors must ignore. *)
  Alcotest.(check bool) "heartbeats serviced" true
    (Cpu.heartbeats_seen (Soc.cpu soc) > 2
    && Timer_dev.expired_count (Soc.tmr1 soc)
       >= Cpu.heartbeats_seen (Soc.cpu soc))

let test_soc_determinism () =
  let trace_of () =
    let soc, _ = run_scenario { Soc.default_config with presses = 2 } in
    Trace.to_string (Tap.trace (Soc.tap soc))
  in
  Alcotest.(check string) "same seed, same trace" (trace_of ()) (trace_of ())

let test_soc_seed_changes_order () =
  let names_of seed =
    let soc, _ =
      run_scenario { Soc.default_config with seed; presses = 1 }
    in
    List.filter
      (fun nm ->
        List.mem (Name.to_string nm)
          [ "set_imgAddr"; "set_glAddr"; "set_glSize" ])
      (Trace.names (Tap.trace (Soc.tap soc)))
  in
  (* Different seeds shuffle the configuration order (eventually): check
     a few seeds produce at least two distinct orders. *)
  let orders =
    List.sort_uniq compare
      (List.map
         (fun seed -> List.map Name.to_string (names_of seed))
         [ 1; 2; 3; 4; 5; 6 ])
  in
  Alcotest.(check bool) "loose ordering exercised" true
    (List.length orders >= 2)

let expect_failure config expected_reason =
  let _soc, report = run_scenario config in
  Alcotest.(check bool) "some property failed" false
    (Report.all_passed report);
  let failures = Report.failures report in
  Alcotest.(check bool) "diagnosis" true
    (List.exists
       (fun c ->
         match Checker.verdict c with
         | Loseq_core.Monitor.Violated v -> expected_reason v.Diag.reason
         | _ -> false)
       failures)

let test_soc_bug_start_first () =
  expect_failure
    { Soc.default_config with cpu_bug = Some Cpu.Start_before_config;
      presses = 1 }
    (function Diag.Missing _ -> true | _ -> false)

let test_soc_bug_skip_size () =
  expect_failure
    { Soc.default_config with cpu_bug = Some Cpu.Skip_gl_size; presses = 1 }
    (function Diag.Missing _ -> true | _ -> false)

let test_soc_bug_double_addr () =
  expect_failure
    { Soc.default_config with cpu_bug = Some Cpu.Double_gl_addr; presses = 1 }
    (function Diag.Reentered _ -> true | _ -> false)

let test_soc_slow_ipu_deadline () =
  expect_failure
    { Soc.default_config with slow_ipu = true; presses = 1 }
    (function Diag.Deadline_miss _ -> true | _ -> false)

let test_soc_trace_satisfies_oracle () =
  (* End-to-end: the recorded platform trace satisfies both Section-3
     properties according to the declarative semantics too. *)
  let soc, _ = run_scenario { Soc.default_config with presses = 2 } in
  let trace = Tap.trace (Soc.tap soc) in
  Alcotest.(check bool) "configuration property" true
    (Semantics.holds (Soc.property_configuration_repeated soc) trace);
  Alcotest.(check bool) "recognition property" true
    (Semantics.holds (Soc.property_recognition soc) trace)

let () =
  Alcotest.run "platform"
    [
      ( "devices",
        [
          Alcotest.test_case "intc mask" `Quick test_intc_mask_logic;
          Alcotest.test_case "intc regs" `Quick test_intc_regs;
          Alcotest.test_case "intc bad line" `Quick test_intc_bad_line;
          Alcotest.test_case "timer one-shot" `Quick test_timer_one_shot;
          Alcotest.test_case "timer periodic" `Quick
            test_timer_periodic_and_stop;
          Alcotest.test_case "timer restart" `Quick
            test_timer_restart_cancels_previous;
          Alcotest.test_case "gpio" `Quick test_gpio_press_emits_and_latches;
          Alcotest.test_case "lock" `Quick test_lock_events;
          Alcotest.test_case "sensor dma" `Quick test_sensor_capture_dma;
          Alcotest.test_case "ipu sequence" `Quick test_ipu_event_sequence;
        ] );
      ( "soc",
        [
          Alcotest.test_case "standard hub hosts one engine" `Quick
            test_standard_hub_one_engine;
          Alcotest.test_case "correct firmware" `Slow
            test_soc_correct_firmware;
          Alcotest.test_case "determinism" `Slow test_soc_determinism;
          Alcotest.test_case "loose ordering varies" `Slow
            test_soc_seed_changes_order;
          Alcotest.test_case "bug: start first" `Slow test_soc_bug_start_first;
          Alcotest.test_case "bug: skip size" `Slow test_soc_bug_skip_size;
          Alcotest.test_case "bug: double addr" `Slow
            test_soc_bug_double_addr;
          Alcotest.test_case "bug: slow ipu" `Slow test_soc_slow_ipu_deadline;
          Alcotest.test_case "oracle agrees" `Slow
            test_soc_trace_satisfies_oracle;
        ] );
    ]
