(** R2P2 baseline: in-network Join-Bounded-Shortest-Queue scheduling
    (paper §2.2, §8.3).

    The switch keeps one occupancy counter per executor and pushes each
    arriving task to an executor whose queue holds fewer than [k] tasks,
    preferring emptier queues: it first scans for a counter equal to 0,
    then 1, and so on — each scan window costing a packet recirculation,
    O(n x k) recirculations in the worst case.  If every queue is full
    the packet keeps recirculating until a slot frees; when the
    recirculation port overflows, the task is {e dropped} (the client
    times out and resubmits) — the Fig. 7/8 failure mode of R2P2-1.

    Counters are partitioned across [window] register arrays so one
    traversal may probe [window] executors while touching each array
    once, matching a multi-stage hardware layout.

    Executors are push-model with a local queue of up to [k] tasks
    (1 in service + k-1 waiting), which is where node-level blocking
    arises for k > 1. *)

open Draconis_sim
open Draconis_net
open Draconis_p4
open Draconis_proto
open Draconis

type pkt =
  | Wire of Message.t
  | Search of {
      task : Task.t;
      client : Addr.t;
      cursor : int;  (** next executor index to probe (window-aligned) *)
      round : int;  (** current JBSQ bound being sought *)
      scanned : int;  (** executors probed in this round *)
    }
  | Steal_fixup of { victim : int option; thief : int option }
      (** work-stealing extension: counter corrections after a steal
          moved a queued task between executors behind the switch's
          back; processed over two traversals because the victim and
          thief may share register arrays *)

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  jbsq_k : int;  (** executor queue bound; R2P2-k *)
  window : int;  (** counters probed per traversal; must divide the
                     executor count *)
  work_stealing : bool;
      (** extension probing the paper's §2.2.1 claim: idle executors
          steal queued (not yet running) tasks from a random peer node.
          Every steal costs a request/transfer round trip plus a counter
          fix-up packet through the switch — the coordination overhead
          the paper cites for leaving stealing out *)
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  client_timeout : Time.t option;  (** drop recovery (paper: ~2x task time) *)
  faults : Plan.t;
      (** fail-over, loss bursts and partitions; crash and straggler
          events are rejected *)
}

(** Paper shape: 10x16 executors, 2 clients, k = 3, window = 16. *)
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
    zeroed registers taking over: counters and idle masks reset (every
    executor believed idle) and recirculating search packets are lost.
    Tasks already pushed to executors keep running.  Returns the
    believed occupancy wiped from the registers. *)
val fail_over_switch : t -> int

(** Fail-overs so far, chronological: time and believed or queued
    state lost. *)
val failovers : t -> (Time.t * int) list

(** Current counter value for an executor (control-plane view). *)
val counter : t -> int -> int

(** Successful steals (work-stealing extension). *)
val steals : t -> int

val run : t -> until:Time.t -> unit
val run_until_drained : t -> deadline:Time.t -> bool
val outstanding : t -> int
val total_executors : t -> int
