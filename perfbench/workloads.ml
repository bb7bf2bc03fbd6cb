(* The benchmark's workloads.  All four run the paper's testbed shape
   (10 workers x 16 executors, 2 clients, 1 rack) with open-loop Poisson
   arrivals generated in simulated time, so the generator can never run
   late.  Each one stresses a different layer; README.md says which
   metrics each should move. *)

open Draconis_sim
open Draconis
module Pipeline = Draconis_p4.Pipeline
module Task = Draconis_proto.Task
module Synthetic = Draconis_workload.Synthetic
module Arrival = Draconis_workload.Arrival
module Harness = Draconis_harness

type t = {
  name : string;
  policy : Policy.t;
  queue_capacity : int;
  pipeline_config : Pipeline.config;
  service : Synthetic.kind;
  rate_tps : float;
  tprops_of : Rng.t -> Task.tprops;
  horizon : Time.t;
  shards : int option;
}

let spec seed = { Harness.Systems.default_spec with seed }

let executors =
  Harness.Systems.default_spec.workers * Harness.Systems.default_spec.executors_per_worker

let at_utilization kind u = u *. Harness.Exp_common.capacity_tps kind ~executors

let fcfs =
  {
    name = "";
    policy = Policy.Fcfs;
    queue_capacity = 164_000;
    pipeline_config = Pipeline.default_config;
    service = Synthetic.Fixed_500us;
    rate_tps = 0.0;
    tprops_of = (fun _ -> Task.No_props);
    horizon = Time.ms 200;
    shards = None;
  }

(* 98% of switch traversals are idle-executor no-op polls.  The 400 ms
   horizon gives p99.9 about 38 samples beyond it. *)
let poll_light =
  {
    fcfs with
    name = "poll-light";
    rate_tps = at_utilization Synthetic.Fixed_500us 0.30;
    horizon = Time.ms 400;
  }

(* Offered load above capacity: the circular-queue backlog grows all
   run, so every pull is answered from a deep queue and no-op polls
   vanish until the drain.  At 95% load the tail percentiles hang on a
   few rare bursts and spread 24-36% between seeds; past saturation the
   delay follows the backlog's steady growth instead.  Its host time
   still swings with the load of other tenants on a shared machine
   (likely because its queued tasks live long enough to reach the major
   heap), so BENCHMARK.json leaves it out; it drives the obs probe. *)
let queue_heavy =
  {
    fcfs with
    name = "queue-heavy";
    rate_tps = at_utilization Synthetic.Fixed_500us 1.50;
    horizon = Time.ms 100;
  }

(* The pifo experiment's EDF arrangement: a 32-slot rank store behind a
   provisioned loop-back port, mixed 20-500 us deadlines.  Most
   traversals recirculate and the circular queue is bypassed. *)
let pifo_edf =
  {
    fcfs with
    name = "pifo-edf";
    policy = Policy.Edf { default_deadline = Time.us 250 };
    queue_capacity = 32;
    pipeline_config =
      { Pipeline.default_config with recirc_slot = Time.ns 10; recirc_queue_limit = 4096 };
    service = Synthetic.Fixed_100us;
    rate_tps = 272_000.0;
    tprops_of = (fun rng -> Task.Deadline (Time.us 20 + Rng.int rng (Time.us 480)));
  }

(* The only workload through Lp/Sync windows, Fabric router mailboxes and
   Pool.Team.  At 78% load its p99.9 depends on whether a seed draws a
   burst that fills all 160 executors (11 us or 47 us); at 60% it does
   not. *)
let sharded_2 =
  {
    fcfs with
    name = "sharded-2";
    rate_tps = at_utilization Synthetic.Fixed_500us 0.60;
    shards = Some 2;
  }

let all = [ poll_light; queue_heavy; pifo_edf; sharded_2 ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) all)))

(* FCFS workloads must never bounce a task off a full queue. *)
let is_fcfs w = match w.policy with Policy.Fcfs -> true | _ -> false

let driver w : Harness.Runner.driver =
 fun engine rng ~submit ->
  Arrival.drive engine rng
    {
      (Arrival.uniform_spec ~rate_tps:w.rate_tps ~duration:(Synthetic.duration w.service)
         ~horizon:w.horizon)
      with
      tprops_of = w.tprops_of;
    }
    ~submit
