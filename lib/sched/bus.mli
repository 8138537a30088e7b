(** Bus arbitration models.

    The paper assumes fault-tolerant communication over a shared bus
    with a protocol "such as TTP" [10] and only consumes worst-case
    transmission times.  Two arbitration models are provided:

    - {!Fcfs}: a work-conserving serialized bus — messages transmit
      back-to-back in request order.  This is the default used by all
      experiments (it matches the Gantt charts of the paper's figures).
    - {!Tdma}: a TTP-style time-division bus — time is divided into
      rounds of one fixed-length slot per computation node, and a node
      may transmit only inside its own slots; a long message spans
      several of its slots across consecutive rounds.

    A [t] value is the mutable arbitration state used while building one
    schedule (or simulating one iteration). *)

type policy = Fcfs | Tdma of { slot_ms : float }

type t

val create : policy -> members:int -> t
(** Fresh bus state for an architecture of [members] nodes.  Raises
    [Invalid_argument] for a non-positive TDMA slot or member count. *)

val validate : policy -> members:int -> unit
(** The checks of {!create}, without building any state — for the
    length-only scheduler, which books an FCFS bus inline. *)

val policy : t -> policy

val transmit : t -> member:int -> ready:float -> duration:float -> float * float
(** [transmit bus ~member ~ready ~duration] books the earliest
    transmission of a [duration]-long message that node [member] can
    start at or after time [ready], updates the bus state, and returns
    [(start, finish)].  Under TDMA, [start] is the first instant of the
    first slot fragment used and [finish] the end of the last one.
    Raises [Invalid_argument] for a member out of range or a negative
    [ready] / [duration]. *)

val round_length_ms : t -> float option
(** TDMA round length ([slot * members]); [None] for FCFS. *)
