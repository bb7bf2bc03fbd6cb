(** Fault-injection capability surface of a schedulable system.

    A target bundles the hooks the {!Injector} pulls when a plan event
    fires, so one injector works uniformly across the Draconis cluster
    and the baselines.  Fabric-level faults (loss bursts, partitions)
    and switch fail-over are supported by every target; executor-level
    faults (crash/restart, straggler slowdown) only by systems built on
    the core pull-model executors ([supports_crash] /
    [supports_straggler] advertise this — {!Injector.arm} rejects a
    plan that exceeds the target's capabilities, rather than failing
    mid-run). *)

open Draconis_sim

type t = {
  name : string;
  engine : Engine.t;
  failover : unit -> int;
      (** kill the scheduler and bring up a fresh standby; returns the
          queued tasks (or believed-occupancy slots) lost *)
  crash_node : int -> unit;
  restart_node : int -> unit;
  set_loss_override : float option -> unit;
  partition : int list -> unit;
  heal : int list -> unit;
  set_slowdown : int -> float -> unit;
  supports_crash : bool;
  supports_straggler : bool;
}

(** Full capability set, for a single-engine cluster ([shards = None]).
    @raise Invalid_argument on a sharded cluster, which takes faults
    only as {!Draconis.Cluster.static_faults}. *)
val of_cluster : ?name:string -> Draconis.Cluster.t -> t

(** Full capability set ([failover] clears the server's in-memory
    queue). *)
val of_central_server : ?name:string -> Draconis_baselines.Central_server.t -> t

(** Fabric faults and fail-over only; push executors have no
    crash/straggler hooks. *)
val of_r2p2 : ?name:string -> Draconis_baselines.R2p2.t -> t

(** Fabric faults and fail-over only. *)
val of_racksched : ?name:string -> Draconis_baselines.Racksched.t -> t
