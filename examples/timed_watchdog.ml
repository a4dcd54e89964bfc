(* Timed implication constraints as simulation watchdogs.

   A minimal bespoke model (no full SoC): a DMA engine that must answer
   every `req` with a burst of 4..16 `beat`s followed by `done`, all
   within 2 us of the request.  This is Example 3's pattern shape
   [(P => Q, t)] on a different component, showing the API outside the
   case study.

   Run with: dune exec examples/timed_watchdog.exe *)

open Loseq_core
open Loseq_sim
open Loseq_verif

let property =
  Parser.pattern_exn "req => beat[4,16] < dma_done within 2000000"
(* 2_000_000 ps = 2 us *)

let dma_engine kernel tap ~beats ~beat_gap () =
  (* Respond to two requests. *)
  for _request = 1 to 2 do
    Kernel.wait_for kernel (Time.us 3);
    Tap.emit tap "req";
    Kernel.wait_loose kernel (Time.ns 100) (Time.ns 300);
    for _beat = 1 to beats do
      Tap.emit tap "beat";
      Kernel.wait_loose kernel beat_gap (Time.add beat_gap (Time.ns 40))
    done;
    Tap.emit tap "dma_done"
  done

let run_scenario title ~beats ~beat_gap =
  let kernel = Kernel.create () in
  let tap = Tap.create kernel in
  let checker = Hub.add ~name:"DMA watchdog" (Hub.create tap) property in
  Checker.on_violation checker (fun v ->
      Format.printf "  [%a] watchdog fired: %a@." Time.pp (Kernel.now kernel)
        Diag.pp_violation v);
  Kernel.spawn kernel (dma_engine kernel tap ~beats ~beat_gap);
  Kernel.run ~until:(Time.ms 1) kernel;
  ignore (Checker.finalize checker);
  Format.printf "%s: %a@." title Checker.pp_verdict (Checker.verdict checker)

let () =
  (* Healthy engine: 8 beats, ~100 ns apart — finishes well inside 2 us. *)
  run_scenario "healthy DMA " ~beats:8 ~beat_gap:(Time.ns 100);
  (* Underrun: only 2 beats — the burst can never reach its minimum of
     4, so `dma_done` arrives too early. *)
  run_scenario "short burst " ~beats:2 ~beat_gap:(Time.ns 100);
  (* Stalled engine: beats 400 ns apart * 16 = deadline miss, detected
     by the hub's deadline wheel the moment the budget is exhausted. *)
  run_scenario "stalled DMA " ~beats:16 ~beat_gap:(Time.ns 400)
