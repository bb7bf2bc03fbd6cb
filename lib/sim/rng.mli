(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulation draws from an [Rng.t]
    seeded explicitly, so a run is a pure function of its configuration:
    re-running an experiment reproduces it bit-for-bit.  [split] derives
    an independent stream, used to give each client/executor its own
    stream so adding a component does not perturb the draws of others.

    Draws allocate nothing: the state is updated in place, [int] and
    [bool] return immediates, and [float] is declared [external] so
    callers receive it unboxed.  Only [bits64] boxes its result. *)

type t

val create : seed:int -> t

(** [split t] derives a new independent generator from [t]'s stream. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
external float : t -> (float[@unboxed]) = "draconis_rng_float_byte" "draconis_rng_float"
[@@noalloc]

(** [bool t] is a fair coin flip. *)
val bool : t -> bool
