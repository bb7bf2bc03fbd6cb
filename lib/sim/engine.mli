(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Components
    schedule closures at future instants; [run] executes them in
    timestamp order (ties broken by scheduling order) and advances the
    clock.  Scheduling in the past is a programming error and raises.

    The engine is single-threaded by design: a simulated cluster of
    thousands of executors runs as one deterministic event loop.  To
    shard one simulation across domains, several engines are composed as
    logical processes ({!Lp}) under a conservative barrier-window
    coordinator ({!Sync}); each engine still runs single-threaded inside
    its window.

    {2 Allocation-free core}

    The hot path allocates nothing in steady state: event keys are
    packed immediate ints, handles are packed ints into a pooled slab of
    per-event slots (recycled through a freelist, with generation
    counters guarding stale cancels), and the default {!Wheel} calendar
    keeps its buckets in flat integer arrays.  The only per-event
    allocation left is the caller's closure, and a stage whose items
    leave in the order they enter avoids even that through
    {!Delay_line}.  A stage whose items mostly die before they leave
    (timeout checks) schedules events only for the live ones through
    {!Watchdog}, on {!reserve}d keys. *)

type t

(** Event-queue implementation.  [Wheel] (the default) is a hierarchical
    timing wheel with O(1) steady-state operations, backed by an
    {!Int_heap} overflow tier for far-future events; [Heap] is the plain
    binary heap.  Both execute the exact same event order, so runs are
    bit-for-bit reproducible across calendars — set [DRACONIS_CALENDAR]
    to [heap] or [wheel] to cross-check. *)
type calendar = Heap | Wheel

val calendar_name : calendar -> string

(** Cancellable handle for a scheduled event — an immediate int, so
    scheduling never allocates a handle record. *)
type handle

(** [create ?calendar ()] — [calendar] defaults to the
    [DRACONIS_CALENDAR] environment variable ([heap] or [wheel]), or
    {!Wheel} when unset.
    @raise Invalid_argument if the environment variable is set to
    anything else. *)
val create : ?calendar:calendar -> unit -> t

(** The calendar this engine was created with. *)
val calendar : t -> calendar

(** [now t] is the current virtual time. *)
val now : t -> Time.t

(** Number of events executed so far. *)
val executed : t -> int

(** Number of events currently queued (including cancelled events whose
    queue entries have not yet been consumed).  Reservations that were
    never scheduled are not counted. *)
val pending : t -> int

(** [earliest t] is the timestamp of the earliest queued event (cancelled
    entries included — a conservative lower bound on the next live
    event) or outstanding {!reserve}d key, whichever is earlier, or
    [max_int] when there is neither.  Used by the {!Sync} barrier
    protocol to compute the global safe horizon without allocating. *)
val earliest : t -> Time.t

(** [schedule t ~after f] runs [f] at [now t + after].
    @raise Invalid_argument if [after < 0]. *)
val schedule : t -> after:Time.t -> (unit -> unit) -> handle

(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at < now t], or if [at] exceeds the
    representable horizon of the packed event key (about 36 simulated
    minutes). *)
val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle

(** {2 Reserved keys}

    A stage that may or may not need an event at a known instant (a
    timeout check that an answer usually makes moot) can take the event's
    key now and decide later.  [reserve t ~at] takes the [(at, seq)] key
    a [schedule_at t ~at] call would have taken at this moment;
    [schedule_reserved] later queues an event under that key, so it fires
    exactly where the early schedule would have fired, relative to every
    other event.

    Until the engine moves past it, an outstanding reservation stands for
    a no-op event at its key, whether it is ever scheduled or not:
    {!earliest} counts it, seq renumbering remaps it together with the
    queued events, and a {!run} that drains the queue moves the clock
    through it.  Only {!executed} and {!pending} leave it out, and it
    takes no [max_events] budget.  So a stage that skips the events it
    does not need leaves the order, the clocks and the barrier windows of
    a run unchanged: only the event count drops.

    Reservations are kept in a FIFO ring: they must be taken in
    non-decreasing [at] order across the whole engine (one stream of
    fixed-delay checks per engine). *)

type reservation = private int

(** [reserve t ~at] takes the next key at [at].
    @raise Invalid_argument if [at < now t], [at] exceeds the key
    horizon, or [at] is earlier than the last outstanding reservation. *)
val reserve : t -> at:Time.t -> reservation

(** [schedule_reserved t r f] runs [f] under [r]'s key.  Schedule a
    reservation at most once.
    @raise Invalid_argument if the engine has already moved past the
    key. *)
val schedule_reserved : t -> reservation -> (unit -> unit) -> handle

(** [cancel t h] prevents the event from firing.  Cancelling an event
    that already fired (or was already cancelled) is a no-op; the
    generation counter in the handle makes this safe even after the
    event's pooled slot has been recycled by a newer event. *)
val cancel : t -> handle -> unit

(** [cancelled t h] is true if [h] was cancelled before firing.  Once
    the slot has been recycled by a newer event (only possible after the
    cancelled entry left the queue), the history of the old handle is
    gone and this returns [false]. *)
val cancelled : t -> handle -> bool

(** [step t] executes the next event, returning [false] when the queue
    is empty. *)
val step : t -> bool

(** [run ?until ?max_events t] executes events until the queue is empty,
    the clock passes [until], or [max_events] have run.  Events at a
    time strictly greater than [until] stay queued.  When every event at
    or before [until] has run, the clock is left at [until] exactly —
    even if later events remain queued; only an exhausted [max_events]
    budget with work still due before the horizon leaves the clock at
    the last executed event's time. *)
val run : ?until:Time.t -> ?max_events:int -> t -> unit

(** [every t ~interval ~until f] schedules [f] repeatedly with the given
    period, starting one interval from now, stopping after [until]. *)
val every : t -> interval:Time.t -> until:Time.t -> (unit -> unit) -> unit
