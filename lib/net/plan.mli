(** Declarative fault plans: the one way to put a fault into a run.

    A plan is a schedule of timed fault events — switch fail-over,
    worker crash/restart windows, loss bursts, partitions, straggler
    degradation — handed to a system when it is built.  Fabric faults
    (loss bursts, partitions) are windows the fabric's drop decision
    reads as pure functions of simulated time ({!loss_at}, {!cut_at});
    the other events become engine events that {!arm} schedules at
    construction on the engine owning their target.  The plan itself
    contains no randomness: every edge sits at an exact simulated time,
    and the draws a loss window induces come from the fabric's seeded
    streams — the single fabric RNG of a single-engine system, the
    sender entity's own stream on a sharded cluster — so identical
    seeds reproduce identical runs.

    Plans round-trip through a compact string syntax used by the
    [--fault] CLI flag, e.g.

    {v failover@5ms
       crash@2ms:node=3,down=1ms
       burst@1ms:dur=500us,loss=0.8
       partition@1ms:hosts=0+1+2,dur=2ms
       straggler@1ms:node=2,factor=4,dur=2ms v}

    Events are separated by [';']; times are a number with an
    [ns]/[us]/[ms]/[s] suffix. *)

open Draconis_sim

type event =
  | Switch_failover
      (** the scheduler's switch (or server host, for server targets)
          dies and a fresh standby takes over: queued state is lost *)
  | Crash of { node : int; down_for : Time.t option }
      (** all executors on [node] crash, losing in-flight tasks;
          restarted after [down_for] ([None] = never restarted) *)
  | Loss_burst of { duration : Time.t; loss : float }
      (** every packet drops with probability [loss] for [duration];
          overlapping bursts apply the maximum loss *)
  | Partition of { hosts : int list; duration : Time.t }
      (** all traffic to or from [hosts] is dropped for [duration];
          overlapping partitions compose (a host is cut while any of
          its windows is open) *)
  | Straggler of { node : int; factor : float; duration : Time.t }
      (** [node]'s executors run [factor] times slower for [duration];
          overlapping windows apply the maximum factor *)

type timed = { at : Time.t; event : event }

type t

val empty : t
val is_empty : t -> bool

(** [create events] sorts the events by time (stable) and validates
    them.
    @raise Invalid_argument on a negative time, a probability outside
    [\[0,1\]], a non-positive duration, a factor below 1, a negative
    node id, or an empty host list. *)
val create : timed list -> t

(** Events in firing order. *)
val events : t -> timed list

(** {2 Windows}

    Pure functions of simulated time over half-open windows
    [\[at, at + duration)]: every logical process of a sharded run
    evaluates them identically. *)

(** True if the plan has a loss burst or a partition: a fabric built
    with a plan without them keeps its loss-free fast path. *)
val has_windows : t -> bool

(** [loss_at t now] is the largest loss of the bursts open at [now]
    ([0.0] if none). *)
val loss_at : t -> Time.t -> float

(** [cut_at t now host] — is [host] inside an open partition? *)
val cut_at : t -> Time.t -> int -> bool

(** [slow_at t ~node now] is the largest straggler factor open on
    [node] at [now] ([1.0] if none). *)
val slow_at : t -> node:int -> Time.t -> float

(** {2 Arming} *)

(** A system's worker nodes, for crash, restart and straggler edges. *)
type nodes = {
  count : int;  (** valid node ids are [\[0, count)] *)
  engine : int -> Engine.t;  (** the engine node [n]'s executors run on *)
  crash : int -> unit;
  restart : int -> unit;
  slowdown : int -> float -> unit;  (** set node [n]'s factor (>= 1.0) *)
}

(** [arm t ~what ~hosts ~switch ~failover ?nodes ()] validates the plan
    against the system and schedules its edges: each fail-over on
    [switch], each crash, restart and straggler edge on its node's
    engine (a straggler edge sets the node's factor to {!slow_at} at
    that instant, so overlapping windows compose by max).  Same-time
    edges fire starts before ends, each group in plan order.  Call it
    while building the system, before any engine runs.
    @raise Invalid_argument (prefixed [what]) if a partition names a
    host outside [\[0, hosts)], a crash or straggler names a node
    outside [\[0, nodes.count)], or the plan has a crash or straggler
    and the system has no [nodes]. *)
val arm :
  t ->
  what:string ->
  hosts:int ->
  switch:Engine.t ->
  failover:(unit -> unit) ->
  ?nodes:nodes ->
  unit ->
  unit

(** [timeline t ~failovers ~until] is the fired-fault log of a run that
    reached [until]: every edge at or before [until] in firing order,
    with a human-readable description.  Fail-over entries take their
    lost-task counts, in order, from [failovers] — the list the system
    recorded. *)
val timeline :
  t -> failovers:(Time.t * int) list -> until:Time.t -> (Time.t * string) list

(** {2 String syntax} *)

(** [of_string s] parses the [--fault] syntax above ([';']-separated
    events).  Whitespace around events and parameters is ignored.
    @raise Invalid_argument with a descriptive message on a syntax
    error, an unknown event kind, an unknown or missing parameter, or a
    value that fails {!create}'s validation. *)
val of_string : string -> t

(** Round-trips through {!of_string}. *)
val to_string : t -> string

val event_to_string : event -> string
val pp : Format.formatter -> t -> unit
