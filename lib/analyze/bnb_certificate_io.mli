(** JSON (de)serialization of branch-and-bound optimality certificates.

    {v
    {
      "schema_version": 1,
      "problem": { "name": "cc", "n_processes": 6, ... },
      "premises": { "kmax": 12, "search_space": 582.0,
                    "represented_subsets": 3.0 },
      "costs": { "heuristic": 34.0, "optimal": 30.0 },
      "incumbent": { "members": [...], "levels": [...],
                     "reexecs": [...], "mapping": [...],
                     "cost": 30.0, "schedule_length_ms": ... },
      "counters": { "expanded": ..., "closed": ..., ... },
      "prunes": [ { "kind": "cost-bound", ... }, ... ]
    }
    v}

    Unbounded costs ([infinity], meaning "no solution on that side")
    are encoded as JSON [null]; an infeasible run has a [null]
    incumbent.  Versioning follows {!Ftes_util.Codec}, except that an
    explicit v0 is rejected. *)

val schema_version : int

val codec : Bnb_certificate.t Ftes_util.Codec.t
val to_json : Bnb_certificate.t -> Ftes_util.Json.t

val save : string -> Bnb_certificate.t -> unit
(** Write to a file (overwrites). *)

val load :
  ?on_warning:(string -> unit) ->
  string ->
  (Bnb_certificate.t, string) result
(** Read and parse a file; I/O errors are reported as [Error]. *)
