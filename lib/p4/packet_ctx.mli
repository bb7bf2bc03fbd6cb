(** Per-packet execution context for one pipeline traversal.

    Modern programmable switches allow each register to be operated on
    {e at most once per packet} (paper §2.1.1): granting multi-stage
    access would create read-write hazards between the packets that
    occupy different stages simultaneously.  This context records which
    registers the current packet has touched so {!Register} can enforce
    the rule — an illegal "P4 program" fails loudly instead of silently
    computing something no switch could.

    A recirculated packet re-enters the pipeline as a {e new} packet:
    its next traversal starts with no register accessed.  The pipeline
    runs one traversal at a time, so it keeps a single context and
    {!reset}s it before each traversal instead of allocating one. *)

type t

(** Raised by a second access to the same register during one traversal.
    Carries the register name. *)
exception Access_violation of string

val create : unit -> t

(** [reset t] forgets every access: the context is ready for the next
    traversal. *)
val reset : t -> unit

(** [mark_access t ~reg_id ~reg_name] records an access.
    @raise Access_violation if [reg_id] was already accessed. *)
val mark_access : t -> reg_id:int -> reg_name:string -> unit

(** [accessed t ~reg_id] is true if this packet already touched the
    register. *)
val accessed : t -> reg_id:int -> bool

(** Number of distinct registers accessed so far. *)
val access_count : t -> int
