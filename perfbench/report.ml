(* What one run prints: a human-readable block, one "record" line with
   the run's full context, and, last, the JSON result line
   {"correct", "attempted", "failed", "metrics"}. *)

module Json = Ftes_util.Json

type result = {
  workload : Catalog.workload;
  tally : Gate.tally;
  values : (string * float) list;  (** metric name -> value. *)
  notes : (string * string) list;  (** metric name -> how it was taken. *)
  properties : (string * Json.t) list;  (** measured input properties. *)
  breakdown : string option;  (** traced run: the self-time table. *)
  calib : Calib.t;  (** the host's speed: end-to-end times are scaled by its slowdown. *)
}

let raw_value r name = List.assoc_opt name r.values

(* A metric as reported: end-to-end times and rates scaled to the
   nominal host. *)
let value r name =
  match List.find_opt (fun (m : Catalog.metric) -> m.Catalog.name = name) Catalog.all with
  | Some m ->
      Option.map (Catalog.host_scaled m ~slowdown:(Calib.slowdown r.calib)) (raw_value r name)
  | None -> raw_value r name

(* The metrics one run reports: the gated end-to-end set untraced, the
   per-layer set traced.  A per-layer metric whose layer does no work
   on the workload (or is not observable there) reads 0. *)
let reported ~trace r =
  if trace then
    List.map
      (fun (m : Catalog.metric) ->
        (m, Option.value ~default:0.0 (value r m.Catalog.name)))
      Catalog.per_layer
  else
    List.map
      (fun (m : Catalog.metric) ->
        match value r m.Catalog.name with
        | Some v -> (m, v)
        | None ->
            failwith
              (Printf.sprintf "%s: metric %s was not measured"
                 (Catalog.workload_name r.workload) m.Catalog.name))
      Catalog.gated

(* Every metric of the run's kind that applies to its workload, by name
   with its unit: untraced, all end-to-end metrics (gated or not);
   traced, the per-layer ones. *)
let human_lines ~trace r =
  let metrics = if trace then Catalog.per_layer else Catalog.end_to_end in
  List.filter_map
    (fun (m : Catalog.metric) ->
      if not (List.mem r.workload m.Catalog.applies) then None
      else
        let v = Option.value ~default:0.0 (value r m.Catalog.name) in
        let note =
          match List.assoc_opt m.Catalog.name r.notes with
          | Some n -> "  (" ^ n ^ ")"
          | None -> ""
        in
        Some
          (Printf.sprintf "  %-36s %14.6g %-6s%s" m.Catalog.name v m.Catalog.unit_ note))
    metrics

let metrics_json ms =
  Json.Object
    (List.map
       (fun ((m : Catalog.metric), v) ->
         ( m.Catalog.name,
           Json.Object [ ("value", Json.Number v); ("unit", Json.String m.Catalog.unit_) ] ))
       ms)

let record_json ~seed ~trace r =
  let all =
    List.filter_map
      (fun (m : Catalog.metric) ->
        Option.map (fun v -> (m, v)) (value r m.Catalog.name))
      Catalog.all
  in
  Json.Object
    [ ("workload", Json.String (Catalog.workload_name r.workload));
      ("why", Json.String (Catalog.why r.workload));
      ("seed", Json.Number (float_of_int seed));
      ("trace", Json.Bool trace);
      ("host", Host.metadata ());
      ("properties", Json.Object r.properties);
      ("attempted", Json.Number (float_of_int r.tally.Gate.attempted));
      ("failed", Json.Number (float_of_int r.tally.Gate.failed));
      ("known_defects", Json.Number (float_of_int r.tally.Gate.known_defects));
      ("mismatches", Json.Number (float_of_int r.tally.Gate.mismatches));
      ("metrics", metrics_json all);
      ("host_slowdown", Json.Number (Calib.slowdown r.calib));
      ("reference_ms", Json.List (List.rev_map (fun ms -> Json.Number ms) r.calib.Calib.probes));
      ( "unscaled",
        Json.Object
          (List.filter_map
             (fun ((m : Catalog.metric), v) ->
               match raw_value r m.Catalog.name with
               | Some raw when raw <> v -> Some (m.Catalog.name, Json.Number raw)
               | _ -> None)
             all) );
      ("notes", Json.Object (List.map (fun (k, v) -> (k, Json.String v)) r.notes)) ]

let final_json ~trace r =
  Json.Object
    [ ("correct", Json.Bool (Gate.correct r.tally));
      ("attempted", Json.Number (float_of_int r.tally.Gate.attempted));
      ("failed", Json.Number (float_of_int r.tally.Gate.failed));
      ("metrics", metrics_json (reported ~trace r)) ]

let print ~seed ~trace r =
  Printf.printf "perfbench %s  seed %d  %s\n" (Catalog.workload_name r.workload)
    seed (if trace then "traced" else "untraced");
  Printf.printf "  why: %s\n" (Catalog.why r.workload);
  if not trace then
    Printf.printf
      "  host slowdown %.4f: the reference took %.4g ms against a nominal %g ms; \
       times and rates below are scaled by it\n"
      (Calib.slowdown r.calib)
      (Calib.slowdown r.calib *. Calib.nominal_ms)
      Calib.nominal_ms;
  List.iter print_endline (human_lines ~trace r);
  Option.iter print_string r.breakdown;
  Printf.printf
    "  correctness: %d attempted, %d failed, %d differ from the seed-commit pins, \
     %d known-defect answers%s\n"
    r.tally.Gate.attempted r.tally.Gate.failed r.tally.Gate.mismatches
    r.tally.Gate.known_defects
    (match r.tally.Gate.first_mismatch with
    | Some m -> " (first: " ^ m ^ ")"
    | None -> "");
  print_endline ("record " ^ Json.to_string ~minify:true (record_json ~seed ~trace r));
  print_endline (Json.to_string ~minify:true (final_json ~trace r))
