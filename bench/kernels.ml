(* Old-vs-new kernel benchmark: runs one OPT experiment cell twice on
   the same seed — once under the retained reference kernels, once
   under the incremental ones — and reports the combined wall time of
   the two hot spans (opt/evaluate + sched/schedule), the evaluation
   counts and the allocation volume.  The per-application costs of the
   two runs must be identical bit for bit (the kernels promise byte
   identity), so the comparison doubles as an end-to-end fingerprint
   check and the program exits non-zero on any divergence.

   Environment knobs (shared with the main harness):
     FTES_APPS   population size (default 24; 8 under FTES_QUICK)
     FTES_SEED   root seed (default 42)
     FTES_QUICK  fast smoke run

   Appends one trajectory record per run to BENCH_kernels.json (created
   on first use) and rewrites results/bench_kernels.csv, so later PRs
   can track kernel regressions against this baseline.

   Quick runs also gate allocation: the program exits non-zero when the
   incremental kernel allocates more than [max_words_per_eval] words per
   [opt/evaluate] call.  The cell runs on one domain, so the figure is
   deterministic, unlike wall time. *)

module Kernel = Ftes_util.Kernel
module Json = Ftes_util.Json
module Csv = Ftes_util.Csv
module Config = Ftes_core.Config
module Redundancy_opt = Ftes_core.Redundancy_opt
module Synthetic = Ftes_exp.Synthetic
module Workload = Ftes_gen.Workload
module Span = Ftes_obs.Span
module Metrics = Ftes_obs.Metrics

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let quick = Sys.getenv_opt "FTES_QUICK" <> None

let apps = env_int "FTES_APPS" (if quick then 8 else 24)

let seed = env_int "FTES_SEED" 42

(* Each mode runs [reps] times and reports its fastest repetition —
   the cell outputs are deterministic, so repetitions only reduce
   scheduler/GC timing noise. *)
let reps = max 1 (env_int "FTES_REPS" 3)

(* Measured at 442 words on the FTES_APPS=6 smoke cell (457 at the
   quick default of 8); the bound leaves a few percent. *)
let max_words_per_eval = 470.0

let counter name snapshot =
  Option.value ~default:0 (List.assoc_opt name snapshot.Metrics.counters)

type mode_run = {
  costs : float option array;
  wall_s : float;
  alloc_words : float;
  eval_ns : int;
  eval_alloc_b : int;
  sched_ns : int;
  sched_alloc_b : int;
  evaluates : int;
  schedules : int;
  snapshot : Metrics.snapshot;
}

let run_mode mode specs key =
  Kernel.set mode;
  Metrics.reset ();
  Span.configure ~aggregate:true ();
  Gc.compact ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let cell = Synthetic.run_cell ~config:Config.default ~specs key in
  let wall_s = Unix.gettimeofday () -. t0 in
  let alloc_words = (Gc.allocated_bytes () -. alloc0) /. 8.0 in
  Span.disable ();
  let snapshot = Metrics.snapshot () in
  { costs = cell.Synthetic.costs;
    wall_s;
    alloc_words;
    eval_ns = counter "span.opt/evaluate.ns" snapshot;
    eval_alloc_b = counter "span.opt/evaluate.alloc_b" snapshot;
    sched_ns = counter "span.sched/schedule.ns" snapshot;
    sched_alloc_b = counter "span.sched/schedule.alloc_b" snapshot;
    evaluates = counter "span.opt/evaluate.count" snapshot;
    schedules = counter "span.sched/schedule.count" snapshot;
    snapshot }

(* Allocation figures come from the first repetition.  Span deltas of
   [Gc.allocated_bytes] shift by a few percent with where minor
   collections fall, so a later, faster repetition would make the
   allocation gate depend on timing; the first one starts from the same
   heap state on every run. *)
let best_of mode specs key =
  let first = run_mode mode specs key in
  let best = ref first in
  for _ = 2 to reps do
    let r = run_mode mode specs key in
    if r.costs <> first.costs then
      failwith "bench_kernels: nondeterministic cell outputs across reps";
    if r.eval_ns + r.sched_ns < !best.eval_ns + !best.sched_ns then best := r
  done;
  { !best with
    alloc_words = first.alloc_words;
    eval_alloc_b = first.eval_alloc_b;
    sched_alloc_b = first.sched_alloc_b }

(* Words allocated per [opt/evaluate] call, nested spans included. *)
let words_per_eval r =
  float_of_int r.eval_alloc_b /. 8.0 /. float_of_int (max 1 r.evaluates)

let results_dir = "results"

let ensure_results_dir () =
  try Sys.mkdir results_dir 0o755 with Sys_error _ -> ()

let json_of_mode label (r : mode_run) =
  ( label,
    Json.Object
      [ ("wall_s", Json.Number r.wall_s);
        ("alloc_words", Json.Number r.alloc_words);
        ("eval_ns", Json.Number (float_of_int r.eval_ns));
        ("sched_ns", Json.Number (float_of_int r.sched_ns));
        ("evaluates", Json.Number (float_of_int r.evaluates));
        ("schedules", Json.Number (float_of_int r.schedules)) ] )

let trajectory_path = "BENCH_kernels.json"

let append_trajectory record =
  let existing =
    if Sys.file_exists trajectory_path then begin
      let ic = open_in_bin trajectory_path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Json.of_string text with
      | Ok (Json.List runs) -> runs
      | Ok _ | Error _ -> []
    end
    else []
  in
  let oc = open_out trajectory_path in
  output_string oc (Json.to_string (Json.List (existing @ [ record ])));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[json] appended run %d to %s\n%!"
    (List.length existing + 1)
    trajectory_path

let () =
  Printf.printf
    "Kernel benchmark: reference vs incremental evaluation kernels\n\
     population: %d applications, seed %d, best of %d reps%s\n%!"
    apps seed reps
    (if quick then " (quick)" else "");
  let specs = Workload.paper_suite ~count:apps ~seed () in
  let key = { Synthetic.ser = 1e-11; hpd = 0.25; policy = Config.Optimize } in
  let reference = best_of Kernel.Reference specs key in
  let incremental = best_of Kernel.Incremental specs key in
  Kernel.set Kernel.Incremental;
  let identical = reference.costs = incremental.costs in
  let combined r = r.eval_ns + r.sched_ns in
  let speedup =
    float_of_int (combined reference)
    /. float_of_int (max 1 (combined incremental))
  in
  let wall_speedup = reference.wall_s /. Float.max 1e-9 incremental.wall_s in
  let alloc_ratio =
    reference.alloc_words /. Float.max 1.0 incremental.alloc_words
  in
  let kernel_counters =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"kernel." name)
      incremental.snapshot.Metrics.counters
  in
  Printf.printf
    "reference:   %.2fs wall, evaluate %d calls / %.3fs, schedule %d calls / \
     %.3fs, %.0fM words\n\
     incremental: %.2fs wall, evaluate %d calls / %.3fs, schedule %d calls / \
     %.3fs, %.0fM words\n\
     combined hot-span speedup: %.2fx (wall %.2fx, alloc %.2fx)\n\
     per-app costs identical: %b\n%!"
    reference.wall_s reference.evaluates
    (float_of_int reference.eval_ns /. 1e9)
    reference.schedules
    (float_of_int reference.sched_ns /. 1e9)
    (reference.alloc_words /. 1e6) incremental.wall_s incremental.evaluates
    (float_of_int incremental.eval_ns /. 1e9)
    incremental.schedules
    (float_of_int incremental.sched_ns /. 1e9)
    (incremental.alloc_words /. 1e6)
    speedup wall_speedup alloc_ratio identical;
  Printf.printf
    "span allocation: evaluate %.1fM -> %.1fM bytes, schedule %.1fM -> %.1fM \
     bytes\n\
     words per evaluate: %.0f -> %.0f\n%!"
    (float_of_int reference.eval_alloc_b /. 1e6)
    (float_of_int incremental.eval_alloc_b /. 1e6)
    (float_of_int reference.sched_alloc_b /. 1e6)
    (float_of_int incremental.sched_alloc_b /. 1e6)
    (words_per_eval reference) (words_per_eval incremental);
  List.iter
    (fun (name, v) -> Printf.printf "  %s = %d\n%!" name v)
    kernel_counters;
  if not identical then
    failwith
      "bench_kernels: incremental kernels diverged from the reference \
       outputs";
  if quick && words_per_eval incremental > max_words_per_eval then
    failwith
      (Printf.sprintf
         "bench_kernels: incremental kernel allocates %.0f words per \
          evaluate, above the %.0f-word bound"
         (words_per_eval incremental) max_words_per_eval);
  if speedup < 2.0 then
    Printf.printf
      "warning: combined hot-span speedup %.2fx below the 2x target\n%!"
      speedup;
  ensure_results_dir ();
  let csv_path = Filename.concat results_dir "bench_kernels.csv" in
  Csv.write_file csv_path
    [ [ "apps"; "seed"; "quick"; "ref_wall_s"; "inc_wall_s"; "wall_speedup";
        "ref_eval_ns"; "inc_eval_ns"; "ref_sched_ns"; "inc_sched_ns";
        "combined_speedup"; "ref_evaluates"; "inc_evaluates";
        "ref_alloc_words"; "inc_alloc_words"; "alloc_ratio"; "identical" ];
      [ string_of_int apps;
        string_of_int seed;
        string_of_bool quick;
        Printf.sprintf "%.4f" reference.wall_s;
        Printf.sprintf "%.4f" incremental.wall_s;
        Printf.sprintf "%.2f" wall_speedup;
        string_of_int reference.eval_ns;
        string_of_int incremental.eval_ns;
        string_of_int reference.sched_ns;
        string_of_int incremental.sched_ns;
        Printf.sprintf "%.2f" speedup;
        string_of_int reference.evaluates;
        string_of_int incremental.evaluates;
        Printf.sprintf "%.0f" reference.alloc_words;
        Printf.sprintf "%.0f" incremental.alloc_words;
        Printf.sprintf "%.2f" alloc_ratio;
        string_of_bool identical ] ];
  Printf.printf "[csv] wrote %s\n%!" csv_path;
  append_trajectory
    (Json.Object
       ([ ("timestamp", Json.Number (Unix.time ()));
          ("apps", Json.Number (float_of_int apps));
          ("seed", Json.Number (float_of_int seed));
          ("quick", Json.Bool quick);
          ("combined_speedup", Json.Number speedup);
          ("wall_speedup", Json.Number wall_speedup);
          ("alloc_ratio", Json.Number alloc_ratio);
          ("identical", Json.Bool identical);
          json_of_mode "reference" reference;
          json_of_mode "incremental" incremental ]
       @ List.map
           (fun (name, v) -> (name, Json.Number (float_of_int v)))
           kernel_counters));
  print_endline "bench_kernels: done"
