(** Parallel-in-run sharding support: the [DRACONIS_SHARDS] knob and
    the team-backed barrier-window executor.

    Where {!Pool} parallelizes {e across} independent grid points,
    sharding parallelizes {e inside} one simulation: the real
    {!Draconis.Cluster} partitions its data path into logical processes
    ({!Draconis_sim.Lp}), each with its own engine, and a conservative
    barrier-window coordinator ({!Draconis_sim.Sync}) runs them in
    lockstep windows bounded by the fabric's minimum link latency
    ({!Draconis_net.Fabric.lookahead}).  Outcomes are bit-identical
    across shard counts; the cluster at [shards = Some 1] is the
    sequential reference. *)

open Draconis_sim

(** ["DRACONIS_SHARDS"]. *)
val env_var : string

(** Upper bound on shard/worker counts (= {!Pool.max_jobs}). *)
val max_shards : int

(** The shard count that was asked for: the [set_shards] override if
    any, else [DRACONIS_SHARDS] if set and non-empty, else [None].
    Sharding is opt-in: callers stay on the single-engine path on
    [None].
    @raise Invalid_argument on a non-integer or out-of-range
    [DRACONIS_SHARDS] — a bad knob is a configuration error, never a
    preference. *)
val shards : unit -> int option

(** Override the process-wide shard count; [None] drops the override so
    [DRACONIS_SHARDS] decides again.
    @raise Invalid_argument if the count is outside [\[1, max_shards\]]. *)
val set_shards : int option -> unit

(** [run_windows ?until ~workers sync] drives {!Draconis_sim.Sync.run}
    on a persistent {!Pool.Team} of [min workers lps] lanes, shut down
    when the run finishes (or raises).  With one lane the windows run
    inline in LP order — the sequential reference path.
    @raise Invalid_argument if [workers] is outside [\[1, max_shards\]]. *)
val run_windows : ?until:Time.t -> workers:int -> Sync.t -> unit
