(** Hashing and equality for the int-array components of memo keys
    ({!Sfp_cache}, the evaluation and probe tables of
    [Ftes_core.Redundancy_opt]). *)

val hash : int -> int array -> int
(** [hash seed arr] mixes every element of [arr] into [seed]. *)

val equal : int array -> int array -> bool
(** Element-wise equality: a monomorphic loop instead of the polymorphic
    [=]. *)
