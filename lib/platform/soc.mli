(** The complete Fig. 2 platform: GPIO, SEN, IPU, LCDC, INTC, TMR1,
    TMR2, MEM, LOCK, Bus and CPU, plus the observation tap and the
    Section-3 properties instantiated over the IPU interface. *)

open Loseq_core
open Loseq_sim
open Loseq_verif

type config = {
  seed : int;
  gallery_size : int;  (** entries read per recognition (>= 100) *)
  presses : int;  (** scripted button presses *)
  press_gap : Time.t;  (** pause between presses *)
  cpu_bug : Cpu.bug option;  (** firmware fault injection *)
  slow_ipu : bool;  (** make recognition miss its deadline *)
  recognition_deadline : Time.t;  (** the paper's [T] *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val kernel : t -> Kernel.t
val tap : t -> Tap.t
val config : t -> config

val property_configuration : t -> Pattern.t
(** Section 3 (i) / Example 2:
    [{set_imgAddr, set_glAddr, set_glSize} << start] (non-repeated by
    default, matching the example). *)

val property_configuration_repeated : t -> Pattern.t
(** The repeated variant: every [start] needs a fresh configuration. *)

val property_recognition : t -> Pattern.t
(** Section 3 (ii) / Example 3:
    [start => read_img[100,60000] < set_irq within T]. *)

val standard_hub :
  ?metrics:Loseq_obs.Metrics.t -> ?backend:Backend.suite_factory -> t -> Hub.t
(** Host the three properties above as one suite on an alphabet-routed
    {!Hub} ({!Hub.host_suite}) with telemetry into [metrics] (see
    {!Hub.create}).  [backend] defaults to
    {!Loseq_core.Backend.flat_views}: one engine for the three, stepped
    engine-direct.  Note the PSL backend rejects
    {!property_recognition} — its [read_img[100,60000]] range is far
    past the re-encoding bound. *)

val attach_standard_checkers :
  ?metrics:Loseq_obs.Metrics.t ->
  ?backend:Backend.suite_factory ->
  t ->
  Report.t
(** {!standard_hub}, reported. *)

val run : ?until:Time.t -> t -> unit
(** Run the scripted scenario (defaults to a horizon comfortably after
    the last press). *)

(** Component access for white-box tests: *)

val ipu : t -> Ipu.t
val tmr1 : t -> Timer_dev.t
val tmr2 : t -> Timer_dev.t
val cpu : t -> Cpu.t
val lock : t -> Lock.t
val gpio : t -> Gpio.t
val lcdc : t -> Lcdc.t
val sensor : t -> Sensor.t
val memory : t -> Memory.t
val bus : t -> Bus.t
val intc : t -> Intc.t
val addresses : Cpu.addresses
