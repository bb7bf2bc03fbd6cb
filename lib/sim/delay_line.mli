(** FIFO delay line: a stage whose items leave in the order they enter.

    Many stages of the model delay each item by a fixed amount: the
    pipeline's ingress-to-egress traversal, the recirculation port.
    Exit times are then non-decreasing in push order, so the stage needs
    no per-item closure: it keeps the in-flight items in a growable ring
    and schedules one preallocated closure per item, which pops the
    ring's head.  (A stage whose items mostly die before they exit, like
    executor watchdog checks, uses {!Watchdog}, which does not even
    schedule an event per item.)

    Each push schedules its event at the same point, and therefore with
    the same [(at, seq)] engine key, that a per-item closure scheduled
    there would get.  Keys with equal [at] fire in [seq] order, which is
    push order (the engine's seq renumbering preserves it), so the
    event that fires is always the one for the ring's head.  The
    simulated outcome is identical to one closure per item; only the
    allocation goes.

    An item carries two values, so a stage with a pair of payloads (a
    packet and its telemetry stack) stores them unboxed in the ring.

    Items cannot be cancelled.  A stage that must discard its in-flight
    items (a fail-over flush) replaces the line and lets the old line's
    handler drop them as they fire. *)

type ('a, 'b) t

(** [create engine handler] is an empty line whose items leave through
    [handler]. *)
val create : Engine.t -> ('a -> 'b -> unit) -> ('a, 'b) t

(** [push t ~at a b] sends the item [(a, b)] down the line; it reaches
    the handler at [at].
    @raise Invalid_argument if [at] is earlier than the exit time of
    the last item still in flight (the line would reorder), or earlier
    than the engine's clock. *)
val push : ('a, 'b) t -> at:Time.t -> 'a -> 'b -> unit

(** Items in flight. *)
val length : ('a, 'b) t -> int
