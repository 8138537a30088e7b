(** Campaign manifest: the complete, versioned description of a
    sharded exploration campaign (DESIGN.md §16).

    A campaign evaluates the Section 7 cell grid (SER × HPD ×
    hardening policy) over a synthetic population of [apps]
    applications, split into [shards] contiguous application ranges.
    Everything a worker needs is derived deterministically from this
    record: the population slice of shard [i] is
    {!Ftes_gen.Workload.suite_slice} over {!shard_range} — bit-identical
    to the corresponding slice of the sequential suite — so two workers
    given the same manifest can never disagree about the work.

    The manifest is serialized once into [manifest.json] at campaign
    creation; its {!fingerprint} (FNV-1a over the minified document) is
    stamped into every checkpoint, which is how resume detects a
    checkpoint written for a different campaign. *)

type t = {
  params : Ftes_gen.Workload.params;  (** workload generator knobs. *)
  apps : int;  (** population size ([>= 1]). *)
  seed : int;  (** master seed of the population. *)
  shards : int;  (** [1 <= shards <= apps]. *)
  sers : float list;  (** SER grid axis, non-empty. *)
  hpds : float list;  (** HPD grid axis, non-empty. *)
  policies : Ftes_core.Config.hardening_policy list;  (** non-empty. *)
  eps : float;  (** frontier archive resolution; [0.] keeps it exact. *)
}

val schema_version : int

val make :
  ?params:Ftes_gen.Workload.params ->
  ?sers:float list ->
  ?hpds:float list ->
  ?policies:Ftes_core.Config.hardening_policy list ->
  ?eps:float ->
  apps:int ->
  seed:int ->
  shards:int ->
  unit ->
  t
(** Checked constructor (defaults: Section 7 params, SER [1e-11], HPD
    [0.25], policies [[MIN; OPT]], [eps = 0.]).  Raises
    [Invalid_argument] on an empty grid axis, [apps < 1], a shard count
    outside [\[1, apps\]], a non-finite grid value or a negative or
    non-finite [eps]. *)

val cells : t -> Ftes_exp.Synthetic.cell_key list
(** The cell grid in canonical order (SER outer, then HPD, then
    policy) — the order checkpoints list their per-cell results in. *)

val n_cells : t -> int

val shard_range : t -> int -> int * int
(** [shard_range t i] is the application index range [\[lo, hi)] of
    shard [i]: [lo = i*apps/shards], [hi = (i+1)*apps/shards] (integer
    division) — disjoint, contiguous and covering [\[0, apps)].  Raises
    [Invalid_argument] outside [\[0, shards)]. *)

val specs_for_shard : t -> int -> Ftes_gen.Workload.app_spec list
(** The shard's population slice, bit-identical to the corresponding
    sub-list of the sequential [apps]-application suite. *)

val archive_spec : t -> Ftes_pareto.Archive.spec
(** All three objectives at the manifest's [eps]. *)

val codec : t Ftes_util.Codec.t

val policy : Ftes_core.Config.hardening_policy Ftes_util.Codec.t
(** ["MIN"], ["MAX"] or ["OPT"]. *)

val fingerprint : t -> string
(** {!Ftes_util.Fingerprint.of_json} of the encoded {!codec} — stable across a
    save/load round-trip. *)

val filename : string
(** ["manifest.json"]. *)

val path : dir:string -> string

val save : dir:string -> t -> unit
(** Atomic write of [dir/manifest.json]. *)

val load : dir:string -> (t, string) result
