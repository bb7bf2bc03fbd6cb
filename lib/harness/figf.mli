(** Fault-injection experiment (paper §3.3 as data).

    Sweeps fault intensity — none, a mid-run scheduler fail-over, the
    fail-over plus a correlated loss burst, plus a two-worker partition
    — against scheduling delay and throughput, for Draconis and the
    server/switch baselines that support client-timeout recovery.  Each
    grid point builds its system with a deterministic
    {!Draconis_net.Plan} and reports the {!Recovery} metrics: queued
    tasks lost at fail-over, time-to-first-assignment of the standby,
    resubmissions and abandonments, and decision-timeline availability.
    Each JSON row's system label carries its plan name.  The Draconis
    rows honour a requested shard count ([--shards] or
    [DRACONIS_SHARDS]); their outcomes do not depend on it. *)

val run : ?quick:bool -> unit -> unit
