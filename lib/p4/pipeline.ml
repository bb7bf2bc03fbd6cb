open Draconis_sim
open Draconis_net
module Obs = Draconis_obs

type ('wire, 'pkt) output = Emit of Addr.t * 'wire | Recirculate of 'pkt | Drop
type ('wire, 'pkt) program = Packet_ctx.t -> 'pkt -> ('wire, 'pkt) output list

type config = {
  pipeline_latency : Time.t;
  packet_slot : Time.t;
  recirc_latency : Time.t;
  recirc_slot : Time.t;
  recirc_queue_limit : int;
}

let default_config =
  {
    pipeline_latency = Time.ns 400;
    packet_slot = Time.ns 1;
    recirc_latency = Time.ns 600;
    recirc_slot = Time.ns 100;
    recirc_queue_limit = 64;
  }

type stack = Obs.Int_telemetry.stack option

type ('wire, 'pkt) t = {
  engine : Engine.t;
  fabric : 'wire Fabric.t;
  config : config;
  mutable program : ('wire, 'pkt) program;
  ctx : Packet_ctx.t;  (* reset for every traversal *)
  mutable ingress_free_at : Time.t;
  mutable recirc_free_at : Time.t;
  (* Both stages delay every packet by a fixed latency after a serial
     admission slot, so packets leave them in the order they enter:
     FIFO delay lines.  [flush_in_flight] bumps [epoch] and opens fresh
     lines; the old lines' handlers, which carry the epoch they were
     opened under, drop their packets as they fire (a fail-over standby
     never sees the dead switch's in-flight or recirculating packets). *)
  mutable epoch : int;
  mutable ingress : ('pkt, stack) Delay_line.t;
  mutable loop : ('pkt, stack) Delay_line.t;
  mutable processed : int;
  mutable recirculated : int;
  mutable recirc_dropped : int;
  mutable flushed : int;
  mutable emitted : int;
}

let admit ?int_ t pkt =
  let now = Engine.now t.engine in
  let start = max now t.ingress_free_at in
  t.ingress_free_at <- start + t.config.packet_slot;
  Delay_line.push t.ingress ~at:(start + t.config.pipeline_latency) pkt int_

let flushed t int_ =
  Option.iter Obs.Int_telemetry.drop_stack int_;
  t.flushed <- t.flushed + 1;
  Obs.Recorder.count "pipeline.flushed" 1

let recirculate ?int_ t pkt =
  (* The loop-back port serves at [recirc_slot] intervals with a bounded
     queue; overflow means the switch cannot recirculate and drops. *)
  let now = Engine.now t.engine in
  let backlog =
    if t.recirc_free_at <= now then 0
    else (t.recirc_free_at - now) / max 1 t.config.recirc_slot
  in
  if backlog >= t.config.recirc_queue_limit then begin
    if Trace.enabled () then
      Trace.emit ~at:now Trace.Pipeline
        (lazy (Printf.sprintf "recirculation DROP (backlog %d)" backlog));
    Option.iter Obs.Int_telemetry.drop_stack int_;
    t.recirc_dropped <- t.recirc_dropped + 1;
    Obs.Recorder.count "pipeline.recirc_dropped" 1;
    if Obs.Recorder.active () then
      Obs.Recorder.mark ~at:now ~track:"pipeline" "recirc drop"
  end
  else begin
    t.recirculated <- t.recirculated + 1;
    Obs.Recorder.count "pipeline.recirculated" 1;
    let start = max now t.recirc_free_at in
    t.recirc_free_at <- start + t.config.recirc_slot;
    Delay_line.push t.loop ~at:(start + t.config.recirc_latency) pkt int_
  end

(* The outputs in order, with the traversal's stamp stack riding the
   last emitted message when [stack_emit] is its 1-based emit ordinal. *)
let rec dispatch t outputs ~int_ ~stack_emit ~emits =
  match outputs with
  | [] -> ()
  | Drop :: rest -> dispatch t rest ~int_ ~stack_emit ~emits
  | Emit (dst, wire) :: rest ->
    let emits = emits + 1 in
    t.emitted <- t.emitted + 1;
    Fabric.send t.fabric
      ?int_:(if emits = stack_emit then int_ else None)
      ~src:Addr.Switch ~dst wire;
    dispatch t rest ~int_ ~stack_emit ~emits
  | Recirculate out_pkt :: rest ->
    recirculate ?int_ t out_pkt;
    dispatch t rest ~int_ ~stack_emit ~emits

(* Emits among the outputs, or [-1] when one of them recirculates. *)
let rec count_emits n = function
  | [] -> n
  | Recirculate _ :: _ -> -1
  | Emit _ :: rest -> count_emits (n + 1) rest
  | Drop :: rest -> count_emits n rest

let traverse t pkt int_ =
  t.processed <- t.processed + 1;
  Obs.Recorder.count "pipeline.processed" 1;
  (* Arm the per-traversal stamp builder so the program's queue/bank
     accesses can contribute the values they already hold; the committed
     stamp rides whichever outputs continue the packet's chain. *)
  let stamping = int_ <> None && Obs.Int_telemetry.enabled () in
  if stamping then Obs.Int_telemetry.begin_traversal ();
  Packet_ctx.reset t.ctx;
  let outputs = t.program t.ctx pkt in
  let int_ =
    if stamping then
      Option.map (Obs.Int_telemetry.commit_traversal ~at:(Engine.now t.engine)) int_
    else int_
  in
  (* The stamp stack follows the chain: recirculated packets inherit it;
     otherwise the traversal is terminal and the stack leaves on the last
     emitted message (or drains at the switch when nothing is emitted,
     e.g. a repair application). *)
  let emits = count_emits 0 outputs in
  if emits = 0 then Option.iter Obs.Int_telemetry.deliver_stack int_;
  dispatch t outputs ~int_ ~stack_emit:emits ~emits:0

(* Fresh ingress and loop-back lines for the current epoch. *)
let open_lines t =
  let epoch = t.epoch in
  t.ingress <-
    Delay_line.create t.engine (fun pkt int_ ->
        if epoch = t.epoch then traverse t pkt int_ else flushed t int_);
  t.loop <-
    Delay_line.create t.engine (fun pkt int_ ->
        if epoch = t.epoch then admit ?int_ t pkt else flushed t int_)

let attach ?(config = default_config) ?on_ingress fabric ~wrap program =
  let engine = Fabric.engine fabric in
  (* A placeholder: the lines' handlers need [t], so [open_lines]
     replaces it before anything is pushed. *)
  let unopened = Delay_line.create engine (fun _ _ -> ()) in
  let t =
    {
      engine;
      fabric;
      config;
      program;
      ctx = Packet_ctx.create ();
      ingress_free_at = 0;
      recirc_free_at = 0;
      epoch = 0;
      ingress = unopened;
      loop = unopened;
      processed = 0;
      recirculated = 0;
      recirc_dropped = 0;
      flushed = 0;
      emitted = 0;
    }
  in
  open_lines t;
  Fabric.register fabric Addr.Switch (fun env ->
      (match on_ingress with
      | None -> ()
      | Some f -> f env.Fabric.payload);
      let int_ =
        if Obs.Int_telemetry.enabled () then
          Some (Obs.Int_telemetry.ingress_stack ~sent_at:env.Fabric.sent_at)
        else None
      in
      admit ?int_ t (wrap env.Fabric.payload));
  t

let set_program t program = t.program <- program

let flush_in_flight t =
  let now = Engine.now t.engine in
  if Trace.enabled () then
    Trace.emit ~at:now Trace.Pipeline (lazy "pipeline flushed (fail-over)");
  if Obs.Recorder.active () then
    Obs.Recorder.mark ~at:now ~track:"pipeline" "flush (fail-over)";
  t.epoch <- t.epoch + 1;
  open_lines t;
  (* The standby's ports start idle. *)
  t.ingress_free_at <- now;
  t.recirc_free_at <- now

let inject t pkt =
  let int_ =
    if Obs.Int_telemetry.enabled () then
      Some (Obs.Int_telemetry.ingress_stack ~sent_at:(Engine.now t.engine))
    else None
  in
  admit ?int_ t pkt
let processed t = t.processed
let recirculated t = t.recirculated
let recirc_dropped t = t.recirc_dropped
let flushed t = t.flushed
let emitted t = t.emitted

let recirculation_fraction t =
  if t.processed = 0 then 0.0
  else float_of_int t.recirculated /. float_of_int t.processed
