(** JSON (de)serialization of problem instances.

    The on-disk format mirrors the paper's inputs directly:

    {v
    {
      "schema_version": 1,
      "application": {
        "name": "fig1",
        "deadline_ms": 360, "period_ms": 360,
        "gamma": 1e-5, "recovery_overhead_ms": 15,
        "processes": ["P1", "P2", "P3", "P4"],
        "edges": [ {"src": 0, "dst": 1, "transmission_ms": 10}, ... ]
      },
      "library": [
        { "name": "N1",
          "versions": [
            {"level": 1, "cost": 16,
             "wcet_ms": [60, 75, 60, 75],
             "pfail": [1.2e-3, 1.3e-3, 1.4e-3, 1.6e-3]}, ... ] }, ... ]
    }
    v}

    Loading re-validates everything through the checked constructors, so
    a malformed file is reported as an [Error] rather than producing an
    inconsistent instance.  Versioning follows {!Ftes_util.Codec}
    (v0 accepted with a warning). *)

val schema_version : int
(** The version this build writes. *)

val codec : Problem.t Ftes_util.Codec.t

val node_type : Platform.node_type Ftes_util.Codec.t
(** One ["library"] entry; a node-add what-if delta carries the same
    spelling. *)

val to_json : Problem.t -> Ftes_util.Json.t

val save : string -> Problem.t -> unit
(** Write to a file (overwrites). *)

val load :
  ?on_warning:(string -> unit) -> string -> (Problem.t, string) result
(** Read and parse a file; I/O errors are reported as [Error]. *)
