(** A line of timeout checks that keeps one armed event.

    A request-reply loop arms a check a fixed window after every send,
    and almost every check finds the reply already in, so it does
    nothing.  This line keeps those checks without paying an engine event
    for each: entries are pushed in send order, so the line is sorted by
    construction, and it keeps exactly one calendar event, for its first
    {e live} entry.

    An entry is [(owner, generation)]; it is live while
    [live owner generation] holds.  Liveness must be monotone: an entry
    that is dead once (its owner's generation has moved on) stays dead.
    When the armed entry fires, the line pops it, re-arms on the next
    live entry (dead entries it skips are dropped and never reach the
    calendar), then calls the handler if the fired entry is still live.

    Every push takes an {!Engine.reserve}d key, and the armed event is
    scheduled under its entry's key.  So a check fires at the same
    [(at, seq)] position a per-entry closure would have had, and the
    skipped checks still count for {!Engine.earliest} until the engine
    passes them: the run's event order, clocks and barrier-window floors
    are those of one closure per entry; only the event count drops.

    The reservations of one engine form one FIFO ring, so every line on
    an engine must push in non-decreasing exit order across the engine:
    share one line per engine, or give every line the same window. *)

type 'a t

(** [create engine ~live handler] is an empty line. *)
val create : Engine.t -> live:('a -> int -> bool) -> ('a -> int -> unit) -> 'a t

(** [add t owner] registers an owner and returns the id that {!push}
    takes for it. *)
val add : 'a t -> 'a -> int

(** [push t ~at id generation] arms a check of [(owner, generation)] at
    [at], for the owner registered as [id]; [live owner generation] must
    hold now.
    @raise Invalid_argument if [id] is not registered, or if [at] is
    before the last check pushed to the engine or before its clock. *)
val push : 'a t -> at:Time.t -> int -> int -> unit

(** Entries held: the armed one and those pushed after it (dead ones
    among them are dropped when the line re-arms). *)
val length : 'a t -> int
