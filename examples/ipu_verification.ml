(* The paper's case study end to end: simulate the access-control
   virtual platform (Fig. 2) with the Section-3 properties attached to
   the IPU interface, first with correct firmware, then with an injected
   ordering bug.

   Run with: dune exec examples/ipu_verification.exe *)

open Loseq_core
open Loseq_platform
open Loseq_verif

(* The checkers are hosted on an alphabet-routed hub; [backend] picks
   the monitor implementation behind them (the CLI equivalent is
   `loseq_cli soc --backend flat`).  The flat engine is the production
   default: the three properties compiled into one table engine that
   the hub steps directly.  Direct is the paper's structural
   construction with the richest diagnostics, one monitor per
   property. *)
let scenario ?(backend = Backend.flat_views) title config =
  Format.printf "@.===== %s =====@." title;
  let soc = Soc.create ~config () in
  let hub = Soc.standard_hub ~backend soc in
  (match Hub.checkers hub with
  | c :: _ ->
      Format.printf "(monitor backend: %s)@." (Checker.backend c).Backend.label
  | [] -> ());
  let report = Hub.report hub in
  (* Violations are reported live, with full diagnostics. *)
  Soc.run soc;
  Report.finalize report;
  Format.printf
    "simulated activity: %d interface events, %d recognitions, %d matches, \
     door opened %d time(s)@."
    (Tap.count (Soc.tap soc))
    (Ipu.recognitions (Soc.ipu soc))
    (Cpu.matches_seen (Soc.cpu soc))
    (Lock.open_count (Soc.lock soc));
  Report.print report

let () =
  Format.printf "Access-control device: %s@."
    (String.concat ", "
       [ "GPIO"; "SEN"; "IPU"; "LCDC"; "INTC"; "TMR1"; "TMR2"; "MEM"; "LOCK";
         "Bus"; "CPU" ]);

  (* Correct firmware: the CPU writes the IPU configuration registers in
     a different (random) order on every recognition — the point of
     loose-ordering properties is that all these orders are correct. *)
  scenario "correct firmware (3 button presses)" Soc.default_config;

  (* The same scenario on the structural (Drct) backend: identical
     verdicts, richer per-fragment coverage. *)
  scenario
    ~backend:(Backend.per_pattern (fun p -> Backend.direct p))
    "correct firmware, structural backend" Soc.default_config;

  (* Buggy firmware: recognition started before the gallery size was
     configured.  A classic driver race — caught by the antecedent
     monitor at the `start` event. *)
  scenario "bug: start before configuration complete"
    { Soc.default_config with
      cpu_bug = Some Cpu.Skip_gl_size;
      presses = 1 };

  (* Slow hardware: the recognition pipeline misses the paper's duration
     bound T; caught by the timed-implication monitor when the deadline
     elapses, without waiting for the (late) interrupt. *)
  scenario "bug: recognition misses its deadline"
    { Soc.default_config with slow_ipu = true; presses = 1 }
