(** Seeded schedule generator.

    [schedule ~seed ()] is a pure function of [seed] (and [ops]): the
    same seed always yields the same schedule, on any host.  The
    grammar is weighted toward the adversarial corners of the queue
    protocol — tiny capacities, same-tick bursts, duplicate
    submissions, invalid retrieve priorities, pointer starts just below
    the 32-bit wrap, and (on ~30% of schedules) composed fault windows
    as a {!Draconis_net.Plan}. *)

(** Generate one schedule.  [ops] bounds the op count (default 40).
    @raise Invalid_argument if [ops < 1]. *)
val schedule : ?ops:int -> seed:int -> unit -> Schedule.t
