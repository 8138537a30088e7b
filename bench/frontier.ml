(* Frontier benchmark (PR 5): two measurements of the Pareto archive.

   1. Raw archive throughput: 10k synthetic feasible points inserted
      into an exact archive and into an ε-gridded one, best-of-reps
      wall time and points/s, plus the resulting box counts and the
      hypervolume against the worst corner of the sampled ranges.

   2. One OPT frontier cell on cruise control: [run_frontier] against
      a plain [run] on the same problem and config.  The frontier's
      [best] must carry the same cost and the same design arrays bit
      for bit — the run doubles as the anytime-optimality fingerprint
      check and the program exits non-zero on any divergence.

   Environment knobs (shared with the main harness):
     FTES_POINTS  synthetic insertion count (default 10000; 2000 quick)
     FTES_SEED    root seed (default 42)
     FTES_REPS    repetitions, fastest kept (default 3)
     FTES_QUICK   fast smoke run

   Appends one trajectory record per run to BENCH_frontier.json
   (created on first use) and rewrites results/bench_frontier.csv. *)

module Json = Ftes_util.Json
module Problem = Ftes_model.Problem
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Archive = Ftes_pareto.Archive
module Cruise_control = Ftes_cc.Cruise_control

open Harness

let n_points = env_int "FTES_POINTS" (if quick then 2_000 else 10_000)

let reps = max 1 (env_int "FTES_REPS" 3)

(* --- synthetic insertion throughput --- *)

(* Costs, slacks and margins drawn uniformly from fixed ranges; the
   shared design is irrelevant to insertion cost (the archive only
   copies the reference). *)
let synthetic_points design =
  let state = Random.State.make [| seed; n_points |] in
  Array.init n_points (fun _ ->
      { Archive.design;
        cost = 10.0 +. Random.State.float state 90.0;
        slack = Random.State.float state 50.0;
        margin = Random.State.float state 10.0 })

let time_insertions ~eps points =
  let spec = Archive.spec ~eps () in
  let best = ref None in
  for _ = 1 to reps do
    let archive = Archive.create ~spec () in
    let t0 = Unix.gettimeofday () in
    Array.iter (Archive.insert archive) points;
    let wall_s = Unix.gettimeofday () -. t0 in
    match !best with
    | Some (w, _) when w <= wall_s -> ()
    | Some _ | None -> best := Some (wall_s, archive)
  done;
  Option.get !best

(* --- worst-corner reference, as [ftes pareto] computes it --- *)

let reference problem =
  let total = ref 0.0 in
  for j = 0 to Problem.n_library problem - 1 do
    let worst = ref 0.0 in
    for level = 1 to Problem.levels problem j do
      worst := Float.max !worst (Problem.cost problem ~node:j ~level)
    done;
    total := !total +. !worst
  done;
  { Archive.ref_cost = !total +. 1.0; ref_slack = 0.0; ref_margin = 0.0 }

(* --- result files --- *)

let () =
  Printf.printf
    "Frontier benchmark: %d synthetic insertions + one OPT frontier cell\n\
     seed %d, best of %d reps%s\n%!"
    n_points seed reps
    (if quick then " (quick)" else "");
  let problem = Cruise_control.problem () in
  let config = Config.default in
  (* OPT frontier cell + fingerprint check against the plain walk. *)
  let t0 = Unix.gettimeofday () in
  let frontier = Design_strategy.run_frontier ~config problem in
  let frontier_wall = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let opt = Design_strategy.run ~config problem in
  let run_wall = Unix.gettimeofday () -. t0 in
  let design_of (s : Design_strategy.solution) =
    s.Design_strategy.result.Redundancy_opt.design
  in
  let cost_of (s : Design_strategy.solution) =
    s.Design_strategy.result.Redundancy_opt.cost
  in
  let identical =
    match (frontier.Design_strategy.best, opt) with
    | None, None -> true
    | Some fb, Some ob ->
        cost_of fb = cost_of ob && design_of fb = design_of ob
    | Some _, None | None, Some _ -> false
  in
  let stats = Archive.stats frontier.Design_strategy.archive in
  let hv =
    Archive.hypervolume frontier.Design_strategy.archive
      ~reference:(reference problem)
  in
  Printf.printf
    "cc OPT cell: frontier %.4fs vs run %.4fs, %d explored, %d frontier \
     points (%d inserted, %d dominated, %d evicted), hypervolume %.4g\n\
     best fingerprint identical: %b\n%!"
    frontier_wall run_wall frontier.Design_strategy.explored
    stats.Archive.boxes stats.Archive.inserted stats.Archive.dominated
    stats.Archive.evicted hv identical;
  if not identical then
    failwith
      "bench_frontier: run_frontier best diverged from the plain run";
  (* Synthetic insertion throughput, exact and gridded. *)
  let design =
    match opt with
    | Some s -> design_of s
    | None -> failwith "bench_frontier: cruise control has no OPT solution"
  in
  let points = synthetic_points design in
  let exact_wall, exact = time_insertions ~eps:0.0 points in
  let grid_eps = 1.0 in
  let grid_wall, grid = time_insertions ~eps:grid_eps points in
  let rate wall = float_of_int n_points /. Float.max 1e-9 wall in
  let synth_reference =
    { Archive.ref_cost = 100.0; ref_slack = 0.0; ref_margin = 0.0 }
  in
  let exact_hv = Archive.hypervolume exact ~reference:synth_reference in
  let grid_hv = Archive.hypervolume grid ~reference:synth_reference in
  Printf.printf
    "insertions:  exact %.4fs (%.0f pts/s, %d boxes, hv %.4g)\n\
    \             eps %g %.4fs (%.0f pts/s, %d boxes, hv %.4g)\n%!"
    exact_wall (rate exact_wall) (Archive.size exact) exact_hv grid_eps
    grid_wall (rate grid_wall) (Archive.size grid) grid_hv;
  save_csv "bench_frontier.csv"
    [ [ "points"; "seed"; "quick"; "exact_wall_s"; "exact_rate";
        "exact_boxes"; "grid_eps"; "grid_wall_s"; "grid_rate"; "grid_boxes";
        "frontier_wall_s"; "run_wall_s"; "explored"; "frontier_points";
        "hypervolume"; "identical" ];
      [ string_of_int n_points;
        string_of_int seed;
        string_of_bool quick;
        Printf.sprintf "%.4f" exact_wall;
        Printf.sprintf "%.0f" (rate exact_wall);
        string_of_int (Archive.size exact);
        Printf.sprintf "%g" grid_eps;
        Printf.sprintf "%.4f" grid_wall;
        Printf.sprintf "%.0f" (rate grid_wall);
        string_of_int (Archive.size grid);
        Printf.sprintf "%.4f" frontier_wall;
        Printf.sprintf "%.4f" run_wall;
        string_of_int frontier.Design_strategy.explored;
        string_of_int stats.Archive.boxes;
        Printf.sprintf "%.6g" hv;
        string_of_bool identical ] ];
  append_trajectory "BENCH_frontier.json"
    (Json.Object
       [ ("timestamp", Json.Number (Unix.time ()));
         ("points", Json.Number (float_of_int n_points));
         ("seed", Json.Number (float_of_int seed));
         ("quick", Json.Bool quick);
         ("exact_wall_s", Json.Number exact_wall);
         ("exact_boxes", Json.Number (float_of_int (Archive.size exact)));
         ("grid_eps", Json.Number grid_eps);
         ("grid_wall_s", Json.Number grid_wall);
         ("grid_boxes", Json.Number (float_of_int (Archive.size grid)));
         ("frontier_wall_s", Json.Number frontier_wall);
         ("run_wall_s", Json.Number run_wall);
         ("explored", Json.Number (float_of_int frontier.Design_strategy.explored));
         ("frontier_points", Json.Number (float_of_int stats.Archive.boxes));
         ("hypervolume", Json.Number hv);
         ("identical", Json.Bool identical) ]);
  print_endline "bench_frontier: done"
