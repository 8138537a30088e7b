(* Pre-flight analysis benchmark: measures the analyzer's own latency
   over a synthetic population, then runs experiment cells twice — once
   plain, once with the per-application pre-flight report feeding the
   design-space walk as its pruning oracle — and reports the wall-time
   delta together with the pruned-assignment / pruned-architecture
   counters.  The pruning tests are one-sided proofs, so the per-app
   costs of the two runs must be identical bit for bit; the program
   exits non-zero on any divergence, and on a paper-SER quick cell that
   prunes nothing (the analyzer would be dead weight).

   Cells: the paper's nominal corner (SER 1e-11, where deadline bounds
   do the pruning) and a high-SER stress corner (SER 3e-8, where
   reliability-deadness also fires).

   Environment knobs (shared with the main harness):
     FTES_APPS   population size (default 24; 8 under FTES_QUICK)
     FTES_SEED   root seed (default 42)
     FTES_QUICK  fast smoke run

   Appends one trajectory record per run to BENCH_analyze.json and
   rewrites results/bench_analyze.csv. *)

module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Synthetic = Ftes_exp.Synthetic
module Workload = Ftes_gen.Workload
module Metrics = Ftes_obs.Metrics
module Preflight = Ftes_analyze.Preflight

open Harness

let apps = env_int "FTES_APPS" (if quick then 8 else 24)

let counter name snapshot =
  Option.value ~default:0 (List.assoc_opt name snapshot.Metrics.counters)

(* --- analyzer latency --- *)

let preflight_latency specs cell =
  let config = Config.default in
  let total = ref 0.0 and slowest = ref 0.0 and infeasible = ref 0 in
  List.iter
    (fun spec ->
      let problem = Workload.problem_of_spec cell spec in
      let t0 = Unix.gettimeofday () in
      let pf =
        Preflight.run ~kmax:config.Config.kmax ~slack:config.Config.slack
          problem
      in
      let dt = Unix.gettimeofday () -. t0 in
      total := !total +. dt;
      if dt > !slowest then slowest := dt;
      if not (Preflight.feasible pf) then incr infeasible)
    specs;
  (!total /. float_of_int (max 1 (List.length specs)), !slowest, !infeasible)

(* --- pruned vs plain cell --- *)

type cell_stats = {
  label : string;
  plain_wall_s : float;
  pruned_wall_s : float;
  pruned_assignments : int;
  pruned_architectures : int;
  identical : bool;
  mean_preflight_s : float;
  max_preflight_s : float;
  infeasible_apps : int;
}

let run_corner label specs key =
  let cell = { Workload.ser = key.Synthetic.ser; hpd = key.Synthetic.hpd } in
  let mean_preflight_s, max_preflight_s, infeasible_apps =
    preflight_latency specs cell
  in
  let timed analyze =
    Metrics.reset ();
    let t0 = Unix.gettimeofday () in
    let run = Synthetic.run_cell ~config:Config.default ~analyze ~specs key in
    (run, Unix.gettimeofday () -. t0, Metrics.snapshot ())
  in
  let plain, plain_wall_s, _ = timed false in
  let pruned, pruned_wall_s, snapshot = timed true in
  { label;
    plain_wall_s;
    pruned_wall_s;
    pruned_assignments = counter "analyze.pruned_assignments" snapshot;
    pruned_architectures = counter "analyze.pruned_architectures" snapshot;
    identical = plain.Synthetic.costs = pruned.Synthetic.costs;
    mean_preflight_s;
    max_preflight_s;
    infeasible_apps }

let report stats =
  Printf.printf
    "%s: plain %.2fs, pruned %.2fs (%.2fx), skipped %d assignments + %d \
     architectures, preflight %.1f us mean / %.1f us max, %d provably \
     infeasible, identical costs: %b\n%!"
    stats.label stats.plain_wall_s stats.pruned_wall_s
    (stats.plain_wall_s /. Float.max 1e-9 stats.pruned_wall_s)
    stats.pruned_assignments stats.pruned_architectures
    (stats.mean_preflight_s *. 1e6)
    (stats.max_preflight_s *. 1e6)
    stats.infeasible_apps stats.identical

let csv_row stats =
  [ stats.label;
    string_of_int apps;
    string_of_int seed;
    string_of_bool quick;
    Printf.sprintf "%.4f" stats.plain_wall_s;
    Printf.sprintf "%.4f" stats.pruned_wall_s;
    string_of_int stats.pruned_assignments;
    string_of_int stats.pruned_architectures;
    Printf.sprintf "%.6f" stats.mean_preflight_s;
    Printf.sprintf "%.6f" stats.max_preflight_s;
    string_of_int stats.infeasible_apps;
    string_of_bool stats.identical ]

let json_of_stats stats =
  ( stats.label,
    Json.Object
      [ ("plain_wall_s", Json.Number stats.plain_wall_s);
        ("pruned_wall_s", Json.Number stats.pruned_wall_s);
        ( "pruned_assignments",
          Json.Number (float_of_int stats.pruned_assignments) );
        ( "pruned_architectures",
          Json.Number (float_of_int stats.pruned_architectures) );
        ("mean_preflight_s", Json.Number stats.mean_preflight_s);
        ("max_preflight_s", Json.Number stats.max_preflight_s);
        ("infeasible_apps", Json.Number (float_of_int stats.infeasible_apps));
        ("identical", Json.Bool stats.identical) ] )

let () =
  Printf.printf
    "Analyze benchmark: pre-flight latency and pruned-vs-plain cells\n\
     population: %d applications, seed %d%s\n%!"
    apps seed
    (if quick then " (quick)" else "");
  let specs = Workload.paper_suite ~count:apps ~seed () in
  let corners =
    [ run_corner "paper-ser" specs
        { Synthetic.ser = 1e-11; hpd = 0.25; policy = Config.Optimize };
      run_corner "high-ser" specs
        { Synthetic.ser = 3e-8; hpd = 0.25; policy = Config.Optimize } ]
  in
  List.iter report corners;
  if List.exists (fun s -> not s.identical) corners then
    failwith "bench_analyze: pruned cell diverged from the plain outputs";
  let skipped s = s.pruned_assignments + s.pruned_architectures in
  if List.fold_left (fun acc s -> acc + skipped s) 0 corners = 0 then
    failwith "bench_analyze: pre-flight pruning never fired";
  save_csv "bench_analyze.csv"
    ([ "cell"; "apps"; "seed"; "quick"; "plain_wall_s"; "pruned_wall_s";
       "pruned_assignments"; "pruned_architectures"; "mean_preflight_s";
       "max_preflight_s"; "infeasible_apps"; "identical" ]
     :: List.map csv_row corners);
  append_trajectory "BENCH_analyze.json"
    (Json.Object
       ([ ("timestamp", Json.Number (Unix.time ()));
          ("apps", Json.Number (float_of_int apps));
          ("seed", Json.Number (float_of_int seed));
          ("quick", Json.Bool quick) ]
       @ List.map json_of_stats corners));
  print_endline "bench_analyze: done"
