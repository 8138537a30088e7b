(* Scaffolding shared by the bench programs: the environment knobs,
   the results directory and the BENCH_*.json trajectories. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

(* FTES_QUICK: a fast smoke run. *)
let quick = Sys.getenv_opt "FTES_QUICK" <> None

(* FTES_SEED: the root seed of every generated population. *)
let seed = env_int "FTES_SEED" 42

let results_dir = "results"

(* mkdir first and treat EEXIST as success: an exists-then-create
   sequence would race against concurrent harness invocations sharing
   one results directory. *)
let ensure_results_dir () =
  try Sys.mkdir results_dir 0o755 with Sys_error _ -> ()

(* Writes [rows] to results/[name]. *)
let save_csv name rows =
  ensure_results_dir ();
  let path = Filename.concat results_dir name in
  Ftes_util.Csv.write_file path rows;
  Printf.printf "[csv] wrote %s\n%!" path

(* Appends [record] to the JSON list of runs in [path], created on first
   use; a file that does not hold a list starts a new one. *)
let append_trajectory path record =
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Ftes_util.Json.of_string text with
      | Ok (Ftes_util.Json.List runs) -> runs
      | Ok _ | Error _ -> []
    end
    else []
  in
  let oc = open_out path in
  output_string oc
    (Ftes_util.Json.to_string (Ftes_util.Json.List (existing @ [ record ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[json] appended run %d to %s\n%!"
    (List.length existing + 1)
    path
