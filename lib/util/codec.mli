(** Bidirectional JSON codecs: one description per schema.

    A ['a t] is an encoder and a decoder written as one value, so every
    field of a document is named once.  Object descriptions list their
    fields with [let+]/[and+]; the declaration order is the emission
    order, which keeps every written byte stable.

    {[
      let edge =
        Codec.(
          obj
            (let+ src = field "src" int (fun (e : edge) -> e.src)
             and+ dst = field "dst" int (fun e -> e.dst) in
             { src; dst }))
    ]}

    Decoding is total: a malformed document is an [Error] naming the
    path to the offending field, never an exception.  Checked
    constructors run inside {!guard}.

    {2 Versioning}

    {!versioned} owns the [schema_version] convention of every document
    the system writes (problems, certificates, frontiers, request and
    response envelopes, campaign files):

    - writers stamp an explicit integer ["schema_version"] field;
    - readers accept the current version;
    - a {e missing} field is the pre-versioning v0 format, accepted
      with a deprecation warning, because v0 and v1 payloads are
      identical;
    - an explicit [0] is accepted exactly when [accept_v0] is set;
    - any other version is rejected with an error naming both the found
      and the supported versions.

    Bounds that are [infinity] in memory ("no admissible assignment")
    have no JSON spelling; {!float_or_null} writes them as [null]. *)

type 'a t = {
  encode : 'a -> Json.t;
  decode : warn:(string -> unit) -> Json.t -> ('a, string) result;
      (** [warn] receives non-fatal notices: the v0 deprecation and
          ignored unknown fields. *)
}

(** {1 Primitives} *)

val int : int t
val float : float t

val float_or_null : float t
(** [Number x] for finite [x], [null] for [infinity]; [null] reads back
    as [infinity]. *)

val string : string t
val bool : bool t
val list : 'a t -> 'a list t
val array : 'a t -> 'a array t

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val conv : ('b -> 'a) -> ('a -> ('b, string) result) -> 'a t -> 'b t
(** [conv f g c] spells a ['b] as the ['a] [f] maps it to; [g] reads it
    back and may reject it. *)

(** {1 Objects} *)

type ('r, 'a) fields
(** Fields projected from an ['r] when encoding, read as an ['a] when
    decoding. *)

val field : ?default:'a -> string -> 'a t -> ('r -> 'a) -> ('r, 'a) fields
(** A field that is always written.  A reader of an older document
    without it gets [default]; with no [default] it is required. *)

val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option) fields
(** A field left out when the projection returns [None]. *)

val group : string -> ('r, 'a) fields -> ('r, 'a) fields
(** A nested object whose fields project from the same value. *)

val splice : ('r -> 's) -> ('s, 'a) fields -> ('r, 'a) fields
(** Another description's fields, inlined into this object. *)

val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields
val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields

val ( let* ) :
  ('r, 'a) fields -> ('a -> ('b, string) result) -> ('r, 'b) fields
(** Like [let+] for a constructor that can reject the fields it is
    given: a checked constructor or a cross-field rule. *)

val obj : ?unknown:string -> ('r, 'r) fields -> 'r t
(** An object.  With [~unknown:what], every field the description does
    not declare (other than ["schema_version"]) is reported through
    [warn] as ["<what>: ignoring unknown field ..."]; without it, extra
    fields are ignored silently. *)

(** {1 Tagged unions} *)

type 'a case

val case : string -> ('a -> 'b option) -> ('b, 'a) fields -> 'a case
(** [case name project fields]: the variant [project] recognises is
    written as an object tagged [name]. *)

val union : what:string -> tag:string -> 'a case list -> 'a t
(** An object whose [tag] field (["kind"], ["class"]) picks the case.
    An unknown tag is ["<what>: unknown <tag> ..."]. *)

(** {1 Versions} *)

val versioned :
  what:string -> current:int -> accept_v0:bool -> 'a t -> 'a t
(** Stamp ["schema_version": current] in front of an object codec's
    fields and check it before decoding, under the convention above.
    [what] names the document family in messages. *)

(** {1 Checked constructors} *)

val guard : string -> (unit -> 'a) -> ('a, string) result
(** [guard label f] is [Ok (f ())], or [Error "label: msg"] when the
    constructor raises [Invalid_argument msg]. *)

(** {1 Running a codec} *)

val encode : 'a t -> 'a -> Json.t

val decode :
  ?on_warning:(string -> unit) -> 'a t -> Json.t -> ('a, string) result
(** [on_warning] defaults to a line on stderr. *)

val to_string : ?minify:bool -> 'a t -> 'a -> string

val of_string :
  ?on_warning:(string -> unit) -> 'a t -> string -> ('a, string) result

val read_file : string -> (string, string) result
(** The whole file; a missing, unreadable or directory path is an
    [Error] naming the path, never an exception. *)

val load :
  ?on_warning:(string -> unit) -> 'a t -> string -> ('a, string) result
(** {!read_file}, then {!of_string}; every error names the path. *)

val save : 'a t -> string -> 'a -> unit
(** Indented document plus a newline, written through
    {!Atomic_file.write_string}. *)
