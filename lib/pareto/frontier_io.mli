(** Frontier exchange formats (CSV and JSON).  JSON documents are
    versioned as {!Ftes_util.Codec} describes (v0 accepted with a
    warning).

    Both readers take the {!Ftes_model.Problem.t} the frontier was
    computed for and re-validate every design against it through the
    checked {!Ftes_model.Design.make}, so a frontier file can never
    smuggle an out-of-library design back into the toolchain. *)

val schema_version : int

val csv_header : string list
(** [cost; slack_ms; margin_log10; members; levels; reexecs; mapping] —
    objective values as round-trippable decimal floats, design arrays
    as [';']-joined integers. *)

val to_csv : Archive.t -> string list list
(** Header row followed by one row per frontier point, in
    {!Archive.points} order. *)

val of_csv :
  ?spec:Archive.spec ->
  problem:Ftes_model.Problem.t ->
  string list list ->
  (Archive.t, string) result
(** Rebuild an archive ({!Archive.default_spec} unless [spec] is given
    — the CSV carries data only) by re-inserting every row.  Rejects a
    bad header, malformed fields and designs that do not validate. *)

val point_fields : (Archive.point, Archive.point) Ftes_util.Codec.fields
(** The fields of one ["points"] element — exported so campaign
    checkpoints splice points into their own objects in the same
    spelling.  The decoded design is {e not} validated yet: pass it
    through {!check_point}. *)

val check_point :
  problem:Ftes_model.Problem.t ->
  row:int ->
  Archive.point ->
  (Archive.point, string) result
(** Re-validate a decoded point's design against [problem] through
    {!Ftes_model.Design.make}; [row] only labels the error. *)

type document = {
  spec : Archive.spec;
  reference : Archive.reference option;
  hypervolume : float option;
      (** of the points against [reference]; written, never trusted. *)
  points : Archive.point list;  (** designs not validated yet. *)
}

val document : document Ftes_util.Codec.t
(** The JSON document, structurally: schema version, objective names,
    [eps], frontier size, the optional reference corner and
    hypervolume, and the points. *)

val to_json : ?reference:Archive.reference -> Archive.t -> Ftes_util.Json.t
(** Self-describing document: schema version, objective names, [eps],
    frontier size and points; when [reference] is given, also the
    reference corner and the archive's hypervolume against it. *)

val of_json :
  ?on_warning:(string -> unit) ->
  problem:Ftes_model.Problem.t ->
  Ftes_util.Json.t ->
  (Archive.t, string) result
(** Inverse of {!to_json}; the spec ([objectives] and [eps]) is read
    from the document itself.  [on_warning] receives the v0
    deprecation notice (default: print to [stderr]). *)

val to_string : ?reference:Archive.reference -> Archive.t -> string
(** Rendered {!to_json}. *)

val of_string :
  ?on_warning:(string -> unit) ->
  problem:Ftes_model.Problem.t ->
  string ->
  (Archive.t, string) result
