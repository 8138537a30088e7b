(* Branch-and-bound benchmark: the solved-size frontier of the exact
   optimizer against the reference enumeration.

   A ladder of synthetic instances grows in task count x processor
   count.  Each rung small enough for [Exhaustive] is solved by both
   engines and their optima must match bit for bit; past the reference
   enumeration's candidate budget only the branch-and-bound runs, and
   its optimality certificate is audited in-process by the verifier's
   bnb/* rules before the rung counts as solved.  The program exits
   non-zero on any divergence, any failed audit, a candidate budget
   overrun, a rung where pruning never fired, and — the point of the
   exercise — when the largest certified-optimal instance is not at
   least 2x larger (n x m) than the largest one Exhaustive finished.

   Environment knobs (shared with the main harness):
     FTES_SEED   root seed (default 42; rung sizes are fixed, the seed
                 picks the instances)
     FTES_QUICK  fast smoke run (lower branch-and-bound budget)

   Appends one trajectory record per run to BENCH_bnb.json and
   rewrites results/bench_bnb.csv. *)

module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Workload = Ftes_gen.Workload
module Redundancy_opt = Ftes_core.Redundancy_opt
module Bnb = Ftes_bnb.Bnb
module Cert = Ftes_analyze.Bnb_certificate
module Report = Ftes_verify.Report

open Harness

(* Candidate budgets: the reference enumeration gets the same cap as
   its in-library default; the branch-and-bound cap is a tripwire (a
   certified run near it would mean the pruning regressed), not a
   weaker claim — overrunning it fails the bench. *)
let exhaustive_budget = 250_000.0

let bnb_budget = if quick then 100_000 else 500_000

(* The ladder: the first rungs stay within [exhaustive_budget] so the
   differential check has teeth; the last rung's candidate space is ~4
   orders of magnitude past it and is solved by pruning alone.  All
   rungs use the paper's nominal SER corner. *)
type rung = { label : string; n : int; lib : int; levels : int }

let ladder =
  [ { label = "n4-lib2"; n = 4; lib = 2; levels = 3 };
    { label = "n6-lib2"; n = 6; lib = 2; levels = 3 };
    { label = "n6-lib3"; n = 6; lib = 3; levels = 3 };
    { label = "n8-lib3"; n = 8; lib = 3; levels = 3 };
    { label = "n12-lib4"; n = 12; lib = 4; levels = 3 } ]

let problem_of rung =
  let params =
    { Workload.default_params with
      Workload.n_library = rung.lib;
      levels = rung.levels }
  in
  let spec =
    Workload.generate_spec ~params ~seed ~index:0 ~n_processes:rung.n ()
  in
  Workload.problem_of_spec ~params { Workload.ser = 1e-11; hpd = 0.25 } spec

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type row = {
  rung : rung;
  space : float;
  exhaustive : (Redundancy_opt.result option * float) option;
      (* (optimum, wall) when the rung fit the reference budget. *)
  bnb : Redundancy_opt.result option;
  bnb_wall_s : float;
  counters : Cert.counters;
  gap : float option;
}

let cost_of = function
  | Some r -> r.Redundancy_opt.cost
  | None -> infinity

let sl_of = function
  | Some r -> r.Redundancy_opt.schedule_length
  | None -> infinity

let run_rung config rung =
  let problem = problem_of rung in
  let space = Bnb.search_space problem in
  let exhaustive =
    if space <= exhaustive_budget then
      Some (time (fun () -> Ftes_core.Exhaustive.run ~config problem))
    else None
  in
  let outcome, bnb_wall_s =
    match time (fun () -> Bnb.solve ~limit:bnb_budget ~config problem) with
    | exception Bnb.Budget_exhausted n ->
        failwith
          (Printf.sprintf
             "bench_bnb: %s exhausted the %d-candidate budget at %d — the \
              pruning regressed"
             rung.label bnb_budget n)
    | r -> r
  in
  (match outcome.Bnb.audit with
  | Some report when Report.ok report -> ()
  | Some report ->
      print_string (Report.to_text report);
      failwith
        (Printf.sprintf "bench_bnb: %s certificate failed its audit"
           rung.label)
  | None -> failwith "bench_bnb: solve ran without certification");
  (match exhaustive with
  | Some (ex, _)
    when cost_of ex <> cost_of outcome.Bnb.best
         || sl_of ex <> sl_of outcome.Bnb.best ->
      failwith
        (Printf.sprintf
           "bench_bnb: %s diverged — exhaustive (cost %g, sl %g) vs \
            branch-and-bound (cost %g, sl %g)"
           rung.label (cost_of ex) (sl_of ex)
           (cost_of outcome.Bnb.best)
           (sl_of outcome.Bnb.best))
  | _ -> ());
  { rung;
    space;
    exhaustive;
    bnb = outcome.Bnb.best;
    bnb_wall_s;
    counters = outcome.Bnb.certificate.Cert.counters;
    gap = Cert.gap outcome.Bnb.certificate }

let prunes c =
  c.Cert.pruned_cost + c.Cert.pruned_arch + c.Cert.pruned_symmetry
  + c.Cert.pruned_levels + c.Cert.pruned_mappings

let report row =
  let c = row.counters in
  Printf.printf
    "%s (space %.3g): bnb %.2fs %s, evaluated %d (%.4f%% of the space), \
     prunes %d cost / %d arch / %d symmetry / %d levels / %d mappings%s%s\n%!"
    row.rung.label row.space row.bnb_wall_s
    (match row.bnb with
    | Some r -> Printf.sprintf "cost %g" r.Redundancy_opt.cost
    | None -> "infeasible")
    c.Cert.evaluated
    (100.0 *. float_of_int c.Cert.evaluated /. row.space)
    c.Cert.pruned_cost c.Cert.pruned_arch c.Cert.pruned_symmetry
    c.Cert.pruned_levels c.Cert.pruned_mappings
    (match row.exhaustive with
    | Some (_, wall) -> Printf.sprintf ", exhaustive %.2fs (identical)" wall
    | None -> ", beyond the exhaustive budget")
    (match row.gap with
    | Some g -> Printf.sprintf ", heuristic gap %.2f%%" (100.0 *. g)
    | None -> "")

let csv_row row =
  let c = row.counters in
  [ row.rung.label;
    string_of_int row.rung.n;
    string_of_int row.rung.lib;
    string_of_int row.rung.levels;
    string_of_int seed;
    string_of_bool quick;
    Printf.sprintf "%.6g" row.space;
    (match row.exhaustive with
    | Some (_, wall) -> Printf.sprintf "%.4f" wall
    | None -> "");
    Printf.sprintf "%.4f" row.bnb_wall_s;
    (match row.bnb with
    | Some r -> Printf.sprintf "%.17g" r.Redundancy_opt.cost
    | None -> "");
    (match row.gap with Some g -> Printf.sprintf "%.6f" g | None -> "");
    string_of_int c.Cert.expanded;
    string_of_int c.Cert.closed;
    string_of_int c.Cert.evaluated;
    string_of_int c.Cert.pruned_cost;
    string_of_int c.Cert.pruned_arch;
    string_of_int c.Cert.pruned_symmetry;
    string_of_int c.Cert.pruned_levels;
    string_of_int c.Cert.pruned_mappings;
    Printf.sprintf "%.6f"
      (1.0 -. (float_of_int c.Cert.evaluated /. row.space)) ]

let json_of_row row =
  let c = row.counters in
  let int name v = (name, Json.Number (float_of_int v)) in
  ( row.rung.label,
    Json.Object
      [ int "n" row.rung.n;
        int "lib" row.rung.lib;
        ("space", Json.Number row.space);
        ( "exhaustive_wall_s",
          match row.exhaustive with
          | Some (_, wall) -> Json.Number wall
          | None -> Json.Null );
        ("bnb_wall_s", Json.Number row.bnb_wall_s);
        ( "optimal_cost",
          match row.bnb with
          | Some r -> Json.Number r.Redundancy_opt.cost
          | None -> Json.Null );
        ( "gap",
          match row.gap with Some g -> Json.Number g | None -> Json.Null );
        int "evaluated" c.Cert.evaluated;
        int "pruned" (prunes c) ] )

let () =
  Printf.printf
    "Branch-and-bound benchmark: solved-size frontier vs Exhaustive\n\
     seed %d%s\n%!"
    seed
    (if quick then " (quick)" else "");
  let config = Config.make ~certify:true () in
  let rows = List.map (run_rung config) ladder in
  List.iter report rows;
  (* The frontier claim: the largest certified-optimal rung must be at
     least twice the size (n x m) of the largest rung the reference
     enumeration finished. *)
  let size row = row.rung.n * row.rung.lib in
  let max_exhaustive =
    List.fold_left
      (fun acc row ->
        if row.exhaustive <> None then max acc (size row) else acc)
      0 rows
  in
  let max_bnb_only =
    List.fold_left
      (fun acc row ->
        if row.exhaustive = None && row.bnb <> None then max acc (size row)
        else acc)
      0 rows
  in
  Printf.printf
    "frontier: exhaustive up to n*m = %d, certified optimum proven at \
     n*m = %d (%.1fx)\n%!"
    max_exhaustive max_bnb_only
    (float_of_int max_bnb_only /. float_of_int (max 1 max_exhaustive));
  if max_bnb_only < 2 * max_exhaustive then
    failwith
      "bench_bnb: the branch-and-bound no longer proves optimality at \
       twice the exhaustive frontier";
  if List.for_all (fun row -> prunes row.counters = 0) rows then
    failwith "bench_bnb: pruning never fired on any rung";
  save_csv "bench_bnb.csv"
    ([ "rung"; "n"; "lib"; "levels"; "seed"; "quick"; "space";
       "exhaustive_wall_s"; "bnb_wall_s"; "optimal_cost"; "gap"; "expanded";
       "closed"; "evaluated"; "pruned_cost"; "pruned_arch";
       "pruned_symmetry"; "pruned_levels"; "pruned_mappings"; "prune_rate" ]
     :: List.map csv_row rows);
  append_trajectory "BENCH_bnb.json"
    (Json.Object
       ([ ("timestamp", Json.Number (Unix.time ()));
          ("seed", Json.Number (float_of_int seed));
          ("quick", Json.Bool quick) ]
       @ List.map json_of_row rows))
