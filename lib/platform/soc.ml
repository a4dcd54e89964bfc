open Loseq_core
open Loseq_sim
open Loseq_verif

type config = {
  seed : int;
  gallery_size : int;
  presses : int;
  press_gap : Time.t;
  cpu_bug : Cpu.bug option;
  slow_ipu : bool;
  recognition_deadline : Time.t;
}

let default_config =
  {
    seed = 0xface;
    gallery_size = 120;
    presses = 3;
    press_gap = Time.us 200;
    cpu_bug = None;
    slow_ipu = false;
    (* 120 gallery reads at ~135 ns each plus capture margins. *)
    recognition_deadline = Time.us 60;
  }

let addresses =
  {
    Cpu.mem_base = 0x0000_0000;
    ipu_base = 0x1000_0000;
    sen_base = 0x1100_0000;
    gpio_base = 0x1200_0000;
    intc_base = 0x1300_0000;
    tmr1_base = 0x1400_0000;
    tmr2_base = 0x1500_0000;
    lcdc_base = 0x1600_0000;
    lock_base = 0x1700_0000;
  }

type t = {
  config : config;
  kernel : Kernel.t;
  tap : Tap.t;
  bus : Bus.t;
  memory : Memory.t;
  intc : Intc.t;
  ipu : Ipu.t;
  sensor : Sensor.t;
  gpio : Gpio.t;
  lcdc : Lcdc.t;
  lock : Lock.t;
  tmr1 : Timer_dev.t;
  tmr2 : Timer_dev.t;
  cpu : Cpu.t;
}

let create ?(config = default_config) () =
  let kernel = Kernel.create ~seed:config.seed () in
  let tap = Tap.create kernel in
  let bus = Bus.create () in
  let bus_target = Bus.target bus in
  let initiator name =
    let ini = Tlm.initiator ~name () in
    Tlm.bind ini bus_target;
    ini
  in
  let memory = Memory.create ~size:0x10_0000 () in
  let intc = Intc.create ~lines:8 kernel in
  let line n () = Intc.raise_line intc n in
  let ipu =
    let analysis =
      if config.slow_ipu then (Time.us 9, Time.us 11)
      else (Time.ns 90, Time.ns 110)
    in
    Ipu.create ~analysis kernel tap ~bus:(initiator "IPU.dma")
      ~on_irq:(line Cpu.irq_lines#ipu)
  in
  let sensor = Sensor.create kernel tap ~bus:(initiator "SEN.dma") in
  let gpio = Gpio.create kernel tap ~on_irq:(line Cpu.irq_lines#gpio) in
  let lcdc = Lcdc.create kernel tap ~bus:(initiator "LCDC.dma") in
  let lock = Lock.create kernel tap in
  let tmr1 =
    Timer_dev.create ~name:"TMR1" kernel ~on_expire:(line Cpu.irq_lines#tmr1)
  in
  let tmr2 =
    Timer_dev.create ~name:"TMR2" kernel ~on_expire:(line Cpu.irq_lines#tmr2)
  in
  let page = 0x1000 in
  Bus.map bus ~base:addresses.Cpu.mem_base ~size:(Memory.size memory)
    (Memory.target memory);
  Bus.map bus ~base:addresses.Cpu.ipu_base ~size:page (Ipu.regs ipu);
  Bus.map bus ~base:addresses.Cpu.sen_base ~size:page (Sensor.regs sensor);
  Bus.map bus ~base:addresses.Cpu.gpio_base ~size:page (Gpio.regs gpio);
  Bus.map bus ~base:addresses.Cpu.intc_base ~size:page (Intc.regs intc);
  Bus.map bus ~base:addresses.Cpu.tmr1_base ~size:page (Timer_dev.regs tmr1);
  Bus.map bus ~base:addresses.Cpu.tmr2_base ~size:page (Timer_dev.regs tmr2);
  Bus.map bus ~base:addresses.Cpu.lcdc_base ~size:page (Lcdc.regs lcdc);
  Bus.map bus ~base:addresses.Cpu.lock_base ~size:page (Lock.regs lock);
  let cpu =
    Cpu.create ?bug:config.cpu_bug ~gallery_size:config.gallery_size kernel
      tap ~bus:(initiator "CPU") ~irq:(Intc.irq_event intc) addresses
  in
  (* Scripted user: press the button [presses] times. *)
  Kernel.spawn ~name:"user" kernel (fun () ->
      Kernel.wait_for kernel (Time.us 50);
      for press = 0 to config.presses - 1 do
        Gpio.press gpio (press mod 2);
        Kernel.wait_for kernel config.press_gap
      done);
  {
    config;
    kernel;
    tap;
    bus;
    memory;
    intc;
    ipu;
    sensor;
    gpio;
    lcdc;
    lock;
    tmr1;
    tmr2;
    cpu;
  }

let kernel t = t.kernel
let tap t = t.tap
let config t = t.config

let names l = List.map Name.v l

let configuration_fragment =
  Pattern.fragment
    (List.map Pattern.range (names [ "set_imgAddr"; "set_glAddr"; "set_glSize" ]))

let property_configuration _t =
  Pattern.antecedent
    [ configuration_fragment ]
    ~trigger:(Name.v "start")

let property_configuration_repeated _t =
  Pattern.antecedent ~repeated:true
    [ configuration_fragment ]
    ~trigger:(Name.v "start")

let property_recognition t =
  Pattern.timed
    [ Pattern.single (Name.v "start") ]
    [
      Pattern.fragment [ Pattern.range ~lo:100 ~hi:60000 (Name.v "read_img") ];
      Pattern.single (Name.v "set_irq");
    ]
    ~deadline:(Time.to_ps t.config.recognition_deadline)

let standard_hub ?metrics ?(backend = Backend.flat_views) t =
  let hub = Hub.create ?metrics t.tap in
  ignore
    (Hub.host_suite hub backend
       [
         ("IPU configuration before start", property_configuration t);
         ( "IPU configuration before start (repeated)",
           property_configuration_repeated t );
         ("recognition completes within deadline", property_recognition t);
       ]);
  hub

let attach_standard_checkers ?metrics ?backend t =
  Hub.report (standard_hub ?metrics ?backend t)

let run ?until t =
  let horizon =
    match until with
    | Some u -> u
    | None ->
        (* Boot + presses, with slack for slow-IPU runs. *)
        let per_press =
          Time.add t.config.press_gap
            (Time.mul t.config.recognition_deadline 40)
        in
        Time.add (Time.us 100) (Time.mul per_press t.config.presses)
  in
  Kernel.run ~until:horizon t.kernel

let ipu t = t.ipu
let tmr1 t = t.tmr1
let tmr2 t = t.tmr2
let cpu t = t.cpu
let lock t = t.lock
let gpio t = t.gpio
let lcdc t = t.lcdc
let sensor t = t.sensor
let memory t = t.memory
let bus t = t.bus
let intc t = t.intc
