(** Domain-based work pool for embarrassingly parallel experiment grids.

    Every (system x load) grid point of the evaluation harness is an
    independent, seeded, deterministic simulation, so the sweep
    parallelizes trivially: each grid point becomes a self-contained
    closure (its own engine, its own RNG) and the pool fans the closures
    out over [Domain.spawn] workers fed from a mutex/condition queue.

    Results always come back in {e submission} order, so tables and CSVs
    built from pooled rows are bit-identical whether the pool runs with
    1 worker or N — a property the determinism tests pin down.

    The worker count defaults to [Domain.recommended_domain_count () - 1]
    (at least 1), can be preset process-wide with the [DRACONIS_JOBS]
    environment variable, and is overridden by [set_jobs] (the [--jobs]
    flag of [bench/main.exe] and [draconis-sim figures]).  With one job
    the pool degenerates to running each closure inline in the
    submitting domain — the sequential reference behaviour. *)

type 'a t

(** Hard cap on worker domains ([set_jobs], [DRACONIS_JOBS], team
    sizes).  The OCaml 5 runtime supports at most 128 live domains per
    process; beyond a few dozen workers there is only oversubscription,
    so out-of-range settings are rejected loudly instead of silently
    spawning until the runtime fails. *)
val max_jobs : int

(** Process-wide default worker count: [DRACONIS_JOBS] if set and within
    [\[1, max_jobs\]], else [Domain.recommended_domain_count () - 1],
    at least 1.
    @raise Invalid_argument on a non-integer or out-of-range setting —
    a bad knob is a configuration error, never a preference. *)
val default_jobs : unit -> int

(** Current worker count used when [create]/[map] get no [?jobs]. *)
val jobs : unit -> int

(** Override the process-wide worker count.
    @raise Invalid_argument if [n < 1] or [n > max_jobs]. *)
val set_jobs : int -> unit

(** [create ?jobs ()] is an empty pool.  Worker domains are spawned
    lazily, one per submitted job up to [jobs]. *)
val create : ?jobs:int -> unit -> 'a t

(** [submit t job] enqueues a job.  With [jobs = 1] the job runs
    immediately in the calling domain.  Exceptions raised by [job] are
    captured and re-raised by [results].
    @raise Invalid_argument if called after [results]. *)
val submit : 'a t -> (unit -> 'a) -> unit

(** [results t] closes the pool, waits for every submitted job, joins
    the worker domains and returns the results in submission order.  If
    any job raised, the exception of the {e earliest-submitted} failed
    job is re-raised (with its backtrace) after all jobs have finished. *)
val results : 'a t -> 'a list

(** [map ?jobs fns] runs every closure on a fresh pool and returns their
    results in order: a parallel [List.map (fun f -> f ())]. *)
val map : ?jobs:int -> (unit -> 'a) list -> 'a list

(** Persistent worker team for repeated parallel batches.

    Where the pool above spawns domains per experiment sweep, a [Team]
    keeps its domains alive across an arbitrary number of [run] calls —
    the execution vehicle for sharded simulation, where every barrier
    window of a run fans the per-LP thunks out and joins them again
    (over a hundred thousand windows per experiment, each microseconds
    long; spawn/join, or even a sleep/wake per window, would dominate).
    The calling domain participates as one of the lanes, so a team of
    size [n] spawns [n - 1] helper domains, and a team of size 1 spawns
    none. *)
module Team : sig
  type t

  (** [create ~size] spawns [size - 1] helper domains.
      @raise Invalid_argument if [size < 1] or [size > max_jobs]. *)
  val create : size:int -> t

  val size : t -> int

  (** [run t thunks] executes every thunk to completion and returns only
      when all have finished.  The calling domain and every helper claim
      the next unrun thunk from one shared cursor per batch, so a lane
      that finishes early takes the next thunk instead of idling, and
      the caller never waits for a helper to wake before work starts.
      Between batches a helper, and at the barrier the caller, spins for
      a bounded budget before parking on a condition variable; a helper
      that has not yet seen a batch, and every lane of a team larger
      than [Domain.recommended_domain_count ()], parks without spinning.
      A team of size 1 runs the batch inline on the caller, in index
      order, with no lock or broadcast.  If any thunk raised, the first
      captured exception is re-raised after the batch barrier.
      @raise Invalid_argument if the team was shut down. *)
  val run : t -> (unit -> unit) array -> unit

  (** Self-telemetry: non-empty batches run, and parks — waits, by any
      lane, that outlasted the spin budget and blocked. *)
  type counters = { batches : int; parks : int }

  val counters : t -> counters

  (** Joins the helper domains.  Idempotent. *)
  val shutdown : t -> unit
end
