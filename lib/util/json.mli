(** Minimal JSON reader/writer.

    Problem instances are exchanged as JSON files (see
    {!Ftes_model.Problem_io}); the sealed environment has no JSON
    package, so this is a small self-contained implementation: UTF-8
    strings with the standard escapes, numbers as OCaml floats, no
    surrogate-pair handling beyond pass-through of [\uXXXX] below
    0x80 (escape sequences above that are rejected — the project's data
    files are ASCII). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; two-space indentation unless [minify]. *)

val of_string : string -> (t, string) result
(** Parse a complete document; trailing garbage is an error.  Errors
    carry a character offset. *)

(** {1 Accessors} — all return [Error] with a path-aware message rather
    than raising. *)

val type_name : t -> string
(** ["null"], ["bool"], ["number"], ["string"], ["list"] or ["object"]. *)

val member : string -> t -> (t, string) result
(** Field of an object. *)

val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_bool : t -> (bool, string) result
val to_list : t -> (t list, string) result
val to_string_value : t -> (string, string) result

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, re-exported for parser-style client code. *)
