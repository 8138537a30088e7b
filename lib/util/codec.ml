type 'a t = {
  encode : 'a -> Json.t;
  decode : warn:(string -> unit) -> Json.t -> ('a, string) result;
}

let expected what json =
  Error (Printf.sprintf "expected %s, got %s" what (Json.type_name json))

let within label = function
  | Ok _ as ok -> ok
  | Error e -> Error (label ^ ": " ^ e)

(* --- primitives --- *)

let primitive encode decode = { encode; decode = (fun ~warn:_ -> decode) }
let int = primitive (fun i -> Json.Number (float_of_int i)) Json.to_int
let float = primitive (fun x -> Json.Number x) Json.to_float

let float_or_null =
  primitive
    (fun x -> if Float.is_finite x then Json.Number x else Json.Null)
    (function Json.Null -> Ok infinity | json -> Json.to_float json)

let string = primitive (fun s -> Json.String s) Json.to_string_value
let bool = primitive (fun b -> Json.Bool b) Json.to_bool

let list c =
  { encode = (fun xs -> Json.List (List.map c.encode xs));
    decode =
      (fun ~warn -> function
        | Json.List items ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | item :: rest -> (
                  match c.decode ~warn item with
                  | Ok v -> go (v :: acc) rest
                  | Error e -> Error e)
            in
            go [] items
        | json -> expected "a list" json) }

let array c =
  let l = list c in
  { encode =
      (fun a ->
        Json.List (Array.fold_right (fun x acc -> c.encode x :: acc) a []));
    decode =
      (fun ~warn json -> Result.map Array.of_list (l.decode ~warn json)) }

let nullable c =
  { encode = (function Some v -> c.encode v | None -> Json.Null);
    decode =
      (fun ~warn -> function
        | Json.Null -> Ok None
        | json -> Result.map Option.some (c.decode ~warn json)) }

let conv f g c =
  { encode = (fun x -> c.encode (f x));
    decode = (fun ~warn json -> Result.bind (c.decode ~warn json) g) }

(* --- objects --- *)

type ('r, 'a) fields = {
  names : string list;
  emit : 'r -> (string * Json.t) list -> (string * Json.t) list;
      (* prepends this description's fields, in declaration order *)
  read :
    warn:(string -> unit) -> (string * Json.t) list -> ('a, string) result;
}

let missing name = Error (Printf.sprintf "missing field %S" name)

let field ?default name c project =
  { names = [ name ];
    emit = (fun r acc -> (name, c.encode (project r)) :: acc);
    read =
      (fun ~warn fs ->
        match List.assoc_opt name fs with
        | Some json -> within name (c.decode ~warn json)
        | None -> (
            match default with Some v -> Ok v | None -> missing name)) }

let opt name c project =
  { names = [ name ];
    emit =
      (fun r acc ->
        match project r with
        | Some v -> (name, c.encode v) :: acc
        | None -> acc);
    read =
      (fun ~warn fs ->
        match List.assoc_opt name fs with
        | Some json ->
            within name (Result.map Option.some (c.decode ~warn json))
        | None -> Ok None) }

let group name f =
  { names = [ name ];
    emit = (fun r acc -> (name, Json.Object (f.emit r [])) :: acc);
    read =
      (fun ~warn fs ->
        match List.assoc_opt name fs with
        | Some (Json.Object inner) -> within name (f.read ~warn inner)
        | Some json -> within name (expected "an object" json)
        | None -> missing name) }

let splice project f = { f with emit = (fun r acc -> f.emit (project r) acc) }

let ( let+ ) f g =
  { f with read = (fun ~warn fs -> Result.map g (f.read ~warn fs)) }

let ( let* ) f g =
  { f with read = (fun ~warn fs -> Result.bind (f.read ~warn fs) g) }

let ( and+ ) a b =
  { names = a.names @ b.names;
    emit = (fun r acc -> a.emit r (b.emit r acc));
    read =
      (fun ~warn fs ->
        match a.read ~warn fs with
        | Error e -> Error e
        | Ok x -> (
            match b.read ~warn fs with
            | Ok y -> Ok (x, y)
            | Error e -> Error e)) }

let obj ?unknown f =
  let report =
    match unknown with
    | None -> fun ~warn:_ _ -> ()
    | Some what ->
        fun ~warn fs ->
          List.iter
            (fun (key, _) ->
              if key <> "schema_version" && not (List.mem key f.names) then
                warn (Printf.sprintf "%s: ignoring unknown field %S" what key))
            fs
  in
  { encode = (fun r -> Json.Object (f.emit r []));
    decode =
      (fun ~warn -> function
        | Json.Object fs ->
            report ~warn fs;
            f.read ~warn fs
        | json -> expected "an object" json) }

(* --- tagged unions --- *)

type 'a case = Case : string * ('a -> 'b option) * ('b, 'a) fields -> 'a case

let case name project f = Case (name, project, f)

let union ~what ~tag cases =
  let rec encode_with v = function
    | [] -> invalid_arg (Printf.sprintf "Codec.union: no %s case" what)
    | Case (name, project, f) :: rest -> (
        match project v with
        | Some b -> Json.Object ((tag, Json.String name) :: f.emit b [])
        | None -> encode_with v rest)
  in
  { encode = (fun v -> encode_with v cases);
    decode =
      (fun ~warn -> function
        | Json.Object fs -> (
            match List.assoc_opt tag fs with
            | None -> missing tag
            | Some (Json.String name) -> (
                let named (Case (n, _, _)) = n = name in
                match List.find_opt named cases with
                | Some (Case (_, _, f)) -> within name (f.read ~warn fs)
                | None ->
                    Error (Printf.sprintf "%s: unknown %s %S" what tag name))
            | Some json -> within tag (expected "a string" json))
        | json -> expected "an object" json) }

(* --- versions --- *)

let check_version ~what ~current ~accept_v0 ~warn fs =
  match List.assoc_opt "schema_version" fs with
  | None ->
      warn
        (Printf.sprintf
           "%s has no \"schema_version\" field; reading it as the \
            deprecated v0 format (re-export to upgrade to v%d)"
           what current);
      Ok ()
  | Some v -> (
      match Json.to_int v with
      | Error e -> Error ("schema_version: " ^ e)
      | Ok v when v = current || (accept_v0 && v = 0) -> Ok ()
      | Ok v ->
          Error
            (if accept_v0 then
               Printf.sprintf
                 "unsupported %s schema_version %d (this build reads \
                  versions 0 and %d; a newer ftes probably wrote this file)"
                 what v current
             else
               Printf.sprintf
                 "unsupported %s schema_version %d (this build reads v%d; \
                  a newer ftes probably wrote this file)"
                 what v current))

let versioned ~what ~current ~accept_v0 c =
  let stamp = ("schema_version", Json.Number (float_of_int current)) in
  { encode =
      (fun x ->
        match c.encode x with
        | Json.Object fs -> Json.Object (stamp :: fs)
        | json -> json);
    decode =
      (fun ~warn json ->
        match json with
        | Json.Object fs ->
            Result.bind
              (check_version ~what ~current ~accept_v0 ~warn fs)
              (fun () -> c.decode ~warn json)
        | json -> expected "an object" json) }

(* --- checked constructors --- *)

let guard label f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (label ^ ": " ^ msg)

(* --- running a codec --- *)

let encode c x = c.encode x
let default_warn msg = Printf.eprintf "ftes: warning: %s\n%!" msg
let decode ?(on_warning = default_warn) c json = c.decode ~warn:on_warning json
let to_string ?minify c x = Json.to_string ?minify (c.encode x)

let of_string ?on_warning c text =
  Result.bind (Json.of_string text) (decode ?on_warning c)

let in_file path e =
  if String.starts_with ~prefix:(path ^ ": ") e then e else path ^ ": " ^ e

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error (in_file path e)

let load ?on_warning c path =
  Result.bind (read_file path) (fun text ->
      Result.map_error (in_file path) (of_string ?on_warning c text))

let save c path x =
  Atomic_file.write_string path (Json.to_string (c.encode x) ^ "\n")
