(** RackSched baseline: power-of-two-choices inter-node scheduling on
    the switch plus an intra-node cFCFS scheduler (paper §2.2, §8).

    The switch tracks one queue-length counter per worker node.  For
    each arriving task it samples two nodes by hashing the task id,
    compares their counters, and pushes the task to the shorter queue;
    sampling avoids recirculation storms but picks a sub-optimal node
    under load (the counter it compares may not be the cluster minimum),
    which is where RackSched's high-load tail inflation comes from.

    Each counter is a separate register so a packet may legally read one
    and conditionally increment the other; when the {e first} sample
    wins, its increment rides a one-hop recirculation (the brief
    staleness this creates mirrors the real system's update lag).

    Worker nodes run {!Node_worker}: a node-level queue feeding
    executors through a dispatcher that costs 3–4 us per task. *)

open Draconis_sim
open Draconis_net
open Draconis_p4
open Draconis_proto
open Draconis

type pkt =
  | Wire of Message.t
  | Incr of { node : int }  (** deferred increment of a sampled counter *)

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  samples : int;  (** power-of-k sampling width (2 in the paper; 1 =
                      random placement, [workers] = exact JSQ) *)
  intra : Node_worker.intra_policy;
      (** intra-node policy: cFCFS for light-tailed workloads, processor
          sharing for heavy-tailed ones (paper §2.2) *)
  dispatch_overhead : Time.t;  (** intra-node scheduler cost per task *)
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  client_timeout : Time.t option;
  faults : Plan.t;
      (** fail-over, loss bursts and partitions; crash and straggler
          events are rejected *)
}

(** Paper shape: 10x16 executors, 2 clients, 3.5 us intra-node cost. *)
val default_config : config

type t

(** @raise Invalid_argument on a fault plan with a crash or straggler
    event, or a partition naming a host the deployment does not have
    ({!Draconis_net.Plan.arm}). *)
val create : config -> t

val engine : t -> Engine.t
val metrics : t -> Metrics.t
val pipeline : t -> (Message.t, pkt) Pipeline.t
val client : t -> int -> Client.t
val clients : t -> Client.t array

(** [fail_over_switch t] models the switch dying and a standby with
    zeroed queue-length counters taking over; in-flight packets are
    lost.  RackSched queues tasks at the nodes, so no queued work is
    lost (returns 0), but the counters under-read until completions
    re-balance them. *)
val fail_over_switch : t -> int

(** Fail-overs so far, chronological: time and believed or queued
    state lost. *)
val failovers : t -> (Time.t * int) list

(** Queue-length counter of a node (control-plane view). *)
val queue_length : t -> int -> int

val run : t -> until:Time.t -> unit
val run_until_drained : t -> deadline:Time.t -> bool
val outstanding : t -> int
val total_executors : t -> int
