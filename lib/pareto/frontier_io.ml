module Json = Ftes_util.Json
module Codec = Ftes_util.Codec
module Design = Ftes_model.Design

let ( let* ) = Result.bind

let schema_version = 1

let csv_header =
  [ "cost"; "slack_ms"; "margin_log10"; "members"; "levels"; "reexecs";
    "mapping" ]

(* %.17g round-trips every finite double through float_of_string. *)
let float_field = Printf.sprintf "%.17g"

let ints_field arr =
  String.concat ";" (List.map string_of_int (Array.to_list arr))

let ints_of_field label text =
  let parts = if text = "" then [] else String.split_on_char ';' text in
  let rec build acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | part :: rest -> (
        match int_of_string_opt part with
        | Some v -> build (v :: acc) rest
        | None -> Error (Printf.sprintf "%s: bad integer %S" label part))
  in
  build [] parts

let float_of_field label text =
  match float_of_string_opt text with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "%s: bad number %S" label text)

let point_row (p : Archive.point) =
  [ float_field p.Archive.cost;
    float_field p.Archive.slack;
    float_field p.Archive.margin;
    ints_field p.Archive.design.Design.members;
    ints_field p.Archive.design.Design.levels;
    ints_field p.Archive.design.Design.reexecs;
    ints_field p.Archive.design.Design.mapping ]

let to_csv archive =
  csv_header :: List.map point_row (Archive.points archive)

let point_of_fields ~problem ~row cost slack margin members levels reexecs
    mapping =
  let label field = Printf.sprintf "row %d, %s" row field in
  let* cost = float_of_field (label "cost") cost in
  let* slack = float_of_field (label "slack_ms") slack in
  let* margin = float_of_field (label "margin_log10") margin in
  let* members = ints_of_field (label "members") members in
  let* levels = ints_of_field (label "levels") levels in
  let* reexecs = ints_of_field (label "reexecs") reexecs in
  let* mapping = ints_of_field (label "mapping") mapping in
  let* design =
    Codec.guard
      (Printf.sprintf "row %d, design" row)
      (fun () -> Design.make problem ~members ~levels ~reexecs ~mapping)
  in
  Ok { Archive.design; cost; slack; margin }

let of_csv ?spec ~problem rows =
  match rows with
  | [] -> Error "empty frontier CSV"
  | header :: body ->
      if header <> csv_header then
        Error
          (Printf.sprintf "unexpected frontier CSV header [%s]"
             (String.concat "; " header))
      else begin
        let rec build acc row = function
          | [] -> Ok (List.rev acc)
          | [ cost; slack; margin; members; levels; reexecs; mapping ]
            :: rest ->
              let* p =
                point_of_fields ~problem ~row cost slack margin members levels
                  reexecs mapping
              in
              build (p :: acc) (row + 1) rest
          | bad :: _ ->
              Error
                (Printf.sprintf "row %d: expected %d fields, found %d" row
                   (List.length csv_header) (List.length bad))
        in
        let* pts = build [] 1 body in
        Codec.guard "frontier" (fun () -> Archive.of_points ?spec pts)
      end

let point_fields =
  let open Codec in
  let ints = array int in
  let+ cost = field "cost" float (fun p -> p.Archive.cost)
  and+ slack = field "slack_ms" float (fun p -> p.Archive.slack)
  and+ margin = field "margin_log10" float (fun p -> p.Archive.margin)
  and+ members = field "members" ints (fun p -> p.Archive.design.members)
  and+ levels = field "levels" ints (fun p -> p.Archive.design.levels)
  and+ reexecs = field "reexecs" ints (fun p -> p.Archive.design.reexecs)
  and+ mapping = field "mapping" ints (fun p -> p.Archive.design.mapping) in
  { Archive.design = { Design.members; levels; reexecs; mapping };
    cost;
    slack;
    margin }

let check_point ~problem ~row (p : Archive.point) =
  let { Design.members; levels; reexecs; mapping } = p.design in
  Result.map
    (fun design -> { p with design })
    (Codec.guard
       (Printf.sprintf "point %d, design" row)
       (fun () -> Design.make problem ~members ~levels ~reexecs ~mapping))

type document = {
  spec : Archive.spec;
  reference : Archive.reference option;
  hypervolume : float option;
  points : Archive.point list;
}

let document =
  let open Codec in
  let objective = conv Objective.name Objective.of_name string in
  let reference =
    obj
      (let+ ref_cost = field "cost" float (fun r -> r.Archive.ref_cost)
       and+ ref_slack = field "slack_ms" float (fun r -> r.Archive.ref_slack)
       and+ ref_margin =
         field "margin_log10" float (fun r -> r.Archive.ref_margin)
       in
       { Archive.ref_cost; ref_slack; ref_margin })
  in
  versioned ~what:"document" ~current:schema_version ~accept_v0:true
    (obj
       (let* objectives =
          field "objectives" (list objective) (fun d ->
              d.spec.Archive.objectives)
        and+ eps = field "eps" float (fun d -> d.spec.Archive.eps)
        and+ _size = field "size" int (fun d -> List.length d.points)
        and+ reference = opt "reference" reference (fun d -> d.reference)
        and+ hypervolume = opt "hypervolume" float (fun d -> d.hypervolume)
        and+ points = field "points" (list (obj point_fields)) (fun d ->
            d.points)
        in
        Result.map
          (fun spec -> { spec; reference; hypervolume; points })
          (guard "spec" (fun () -> Archive.spec ~objectives ~eps ()))))

let to_json ?reference archive =
  Codec.encode document
    { spec = Archive.spec_of archive;
      reference;
      hypervolume =
        Option.map
          (fun r -> Archive.hypervolume archive ~reference:r)
          reference;
      points = Archive.points archive }

let of_json ?on_warning ~problem json =
  let* d = Codec.decode ?on_warning document json in
  let rec check acc row = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
        let* p = check_point ~problem ~row p in
        check (p :: acc) (row + 1) rest
  in
  let* pts = check [] 1 d.points in
  Codec.guard "frontier" (fun () -> Archive.of_points ~spec:d.spec pts)

let to_string ?reference archive = Json.to_string (to_json ?reference archive)

let of_string ?on_warning ~problem text =
  let* json = Json.of_string text in
  of_json ?on_warning ~problem json
