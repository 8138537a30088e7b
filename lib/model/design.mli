(** A candidate solution (Section 4 outputs 1-3).

    A design fixes (1) the selected architecture — a subset of the node
    library, (2) the hardening level of every selected node, (3) the
    maximum number of re-executions [kj] on every selected node, and
    (4) the process mapping.  The fourth paper output, the static
    schedule, is computed from a design by {!Ftes_sched.Scheduler}. *)

type t = {
  members : int array;  (** library index of each selected node. *)
  levels : int array;  (** hardening level [h] per member (1-based). *)
  reexecs : int array;  (** [kj] per member. *)
  mapping : int array;  (** process index -> member slot [0..n-1]. *)
}
(** {b Frozen arrays.}  Every constructor below copies the arrays it is
    given, and nothing mutates a design's arrays afterwards: a design's
    four arrays are frozen for its lifetime.  Code building a design
    with a record expression (functional update included) owes the same
    guarantee — it hands over arrays that no one writes again (a fresh
    copy, or another design's array).  The memo layers rely on this:
    the evaluation and probe tables of [Ftes_core.Redundancy_opt] key
    on a design's [members] and [mapping] arrays by reference and store
    result designs that share them, and [Ftes_par.Sfp_cache] caches the
    member partition per [mapping] array identity.  To vary an array,
    copy it first ([Array.copy design.mapping]) and build a new design
    from the copy. *)

val make :
  Problem.t ->
  members:int array ->
  levels:int array ->
  reexecs:int array ->
  mapping:int array ->
  t
(** Checked constructor.  Raises [Invalid_argument] when a member index
    is out of the library, a member is selected twice, the three member
    arrays disagree in length, a level is out of that node's range, a
    [kj] is negative, or the mapping is not total over processes and
    member slots. *)

val validate : Problem.t -> t -> (unit, string) result
(** Same checks, as data. *)

val n_members : t -> int

val with_levels : t -> int array -> t
val with_reexecs : t -> int array -> t
val with_mapping : t -> int array -> t
(** Functional updates (the new array is copied; the others are
    shared, which the frozen-array invariant makes safe). *)

val cost : Problem.t -> t -> float
(** Total architecture cost: sum of the member node costs at their
    selected hardening levels (the objective of Section 4). *)

val wcet : Problem.t -> t -> proc:int -> float
(** WCET of a process on the member it is mapped to, at that member's
    selected level. *)

val wcet_into : Problem.t -> t -> out:float array -> unit
(** [wcet_into problem t ~out] fills [out.(p)] with
    [wcet problem t ~proc:p] for every process, resolving each
    member's h-version table once.  [out] must hold at least as many
    cells as there are processes. *)

val pfail : Problem.t -> t -> proc:int -> float
(** Failure probability of one execution of the process under the
    design. *)

val procs_on : t -> member:int -> int list
(** Processes mapped on a member slot, ascending. *)

val pfail_vector : Problem.t -> t -> member:int -> float array
(** Failure probabilities of the processes on a member — the input of
    the per-node SFP analysis. *)

val pp : Format.formatter -> Problem.t -> t -> unit
(** Human-readable multi-line dump (architecture, levels, k, mapping). *)
