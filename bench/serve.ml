(* Design-service load benchmark: a mixed request stream through the
   resident daemon versus one-shot execution of every request.

   The stream cycles analyze / optimize (all three strategies) /
   pareto / exact requests over the built-in examples and a handful of
   synthetic instances, under rotating slack and bus policies.  Every
   request is executed twice: {e cold} — a fresh one-shot run on the
   shared [Ftes_driver.Exec] path, exactly what a CLI subcommand does —
   and {e warm} — through [Ftes_driver.Daemon.run_lines] in
   serve-sized batches over one shared cache registry, on a sequential
   pool so the warm/cold ratio isolates cache sharing rather than
   conflating it with parallel speedup.  The response fingerprint
   (verdict, id and every payload byte) must match between the two
   modes on all requests; any divergence fails the bench — the
   daemon's warm caches are contractually invisible.

   Environment knobs (shared with the main harness):
     FTES_SEED      root seed (default 42)
     FTES_QUICK     fast smoke run (24 requests instead of 240)
     FTES_REQUESTS  override the request count

   Appends one trajectory record (tail latencies, throughputs, cache
   hit rates, warm-over-cold factor) to BENCH_serve.json and rewrites
   results/bench_serve.csv. *)

module Json = Ftes_util.Json
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Workload = Ftes_gen.Workload
module Redundancy_opt = Ftes_core.Redundancy_opt
module Sfp_cache = Ftes_par.Sfp_cache
module Pool = Ftes_par.Pool
module Objective = Ftes_pareto.Objective
module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Exec = Ftes_driver.Exec
module Daemon = Ftes_driver.Daemon

open Harness

let n_requests = env_int "FTES_REQUESTS" (if quick then 24 else 240)

let max_batch = 16

let ok_exn = function Ok v -> v | Error e -> failwith ("bench_serve: " ^ e)

(* --- the request mix --- *)

(* Synthetic instances: a few distinct problems so repeats actually
   exercise the warm cache, sized for the exhaustive-free commands. *)
let synthetic =
  let make lib levels n index =
    let params =
      { Workload.default_params with Workload.n_library = lib; levels }
    in
    let spec = Workload.generate_spec ~params ~seed ~index ~n_processes:n () in
    Workload.problem_of_spec ~params { Workload.ser = 1e-10; hpd = 0.5 } spec
  in
  Array.init 4 (make 2 3 6)

(* Tiny instances within the exact optimizer's comfort zone. *)
let tiny =
  let make index =
    let params =
      { Workload.default_params with Workload.n_library = 2; levels = 3 }
    in
    let spec = Workload.generate_spec ~params ~seed ~index ~n_processes:4 () in
    Workload.problem_of_spec ~params { Workload.ser = 1e-10; hpd = 0.5 } spec
  in
  Array.init 2 make

let slacks = [| Scheduler.Shared; Scheduler.Conservative; Scheduler.Dedicated |]

let buses = [| Bus.Fcfs; Bus.Tdma { slot_ms = 2.0 } |]

let strategies = [| "opt"; "min"; "max" |]

let pareto_all =
  Request.Pareto { eps = 0.0; objectives = Objective.all; ref_cost = None }

let request_of_index i =
  let slack = slacks.(i mod Array.length slacks) in
  let bus = buses.(i mod Array.length buses) in
  let strategy = strategies.(i mod Array.length strategies) in
  let target k =
    match k mod 4 with
    | 0 -> `Example "fig1"
    | 1 -> `Example "fig3"
    | 2 -> `Example "cc"
    | _ -> `Problem synthetic.(k mod Array.length synthetic)
  in
  let command, problem =
    match i mod 10 with
    | 0 | 1 | 2 -> (Request.Analyze, target (i / 3))
    | 3 | 4 | 5 | 6 -> (Request.Optimize, target (i / 2))
    | 7 ->
        ( pareto_all,
          if i mod 20 = 7 then `Example "fig1" else `Example "cc" )
    | 8 ->
        ( Request.Exact { limit = None },
          if i mod 20 = 8 then `Example "fig1" else `Example "fig3" )
    | _ ->
        ( Request.Exact { limit = None },
          `Problem tiny.(i mod Array.length tiny) )
  in
  ok_exn
    (Request.make
       ~id:(Printf.sprintf "req-%03d" i)
       ~strategy ~slack ~bus command problem)

(* --- the two passes --- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One-shot: what a CLI subcommand does — fresh run, no shared cache. *)
let one_shot (req : Request.t) =
  let outcome = Exec.run req in
  { Response.id = req.Request.id;
    seq = 0;
    verdict = Exec.verdict outcome;
    payload = Exec.payload req outcome;
    error = None;
    telemetry = None }

let rec batches n = function
  | [] -> []
  | lines ->
      let rec split k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | line :: rest -> split (k - 1) (line :: acc) rest
      in
      let batch, rest = split n [] lines in
      batch :: batches n rest

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let tail_latencies walls =
  let sorted = Array.of_list walls in
  Array.sort compare sorted;
  (percentile sorted 0.50, percentile sorted 0.95, percentile sorted 0.99)

let () =
  Printf.printf
    "Design-service benchmark: daemon (warm, shared caches) vs one-shot\n\
     %d requests, seed %d%s\n%!"
    n_requests seed
    (if quick then " (quick)" else "");
  let requests = List.init n_requests request_of_index in
  let lines = List.map Request.to_string requests in

  (* Cold pass: every request a fresh one-shot execution. *)
  let cold, cold_total_s =
    time (fun () -> List.map (fun req -> time (fun () -> one_shot req)) requests)
  in

  (* Warm pass: the daemon loop over one shared cache registry. *)
  let caches = Daemon.create_caches () in
  let evals_before = Redundancy_opt.eval_stats () in
  let sfp_before = Sfp_cache.totals () in
  let warm, warm_total_s =
    time (fun () ->
        let _, rev =
          List.fold_left
            (fun (seq, acc) batch ->
              let responses =
                Daemon.run_lines ~pool:Pool.sequential ~caches ~first_seq:seq
                  batch
              in
              (seq + List.length responses, List.rev_append responses acc))
            (0, []) (batches max_batch lines)
        in
        List.rev rev)
  in
  let evals_after = Redundancy_opt.eval_stats () in
  let sfp_after = Sfp_cache.totals () in

  (* The fingerprint check: warm caches must be invisible. *)
  if List.length warm <> n_requests then
    failwith "bench_serve: the daemon dropped or duplicated responses";
  let divergences =
    List.fold_left
      (fun count ((one_shot_resp, _), daemon_resp) ->
        let want = Response.fingerprint one_shot_resp in
        let got = Response.fingerprint daemon_resp in
        if want = got then count
        else begin
          Printf.printf "DIVERGENCE %s:\n  one-shot %s\n  daemon   %s\n%!"
            daemon_resp.Response.id want got;
          count + 1
        end)
      0
      (List.combine cold warm)
  in
  if divergences > 0 then
    failwith
      (Printf.sprintf
         "bench_serve: %d of %d daemon responses diverged from one-shot \
          execution — cache sharing leaked into the results"
         divergences n_requests);
  List.iter
    (fun r ->
      if r.Response.verdict = Response.Failed then
        failwith
          (Printf.sprintf "bench_serve: request %s failed: %s" r.Response.id
             (Option.value ~default:"?" r.Response.error)))
    warm;

  (* Latencies: cold from the harness clock, warm from the daemon's own
     per-request telemetry. *)
  let cold_walls = List.map snd cold in
  let warm_walls =
    List.map
      (fun r ->
        match r.Response.telemetry with
        | Some t -> float_of_int t.Response.wall_ns *. 1e-9
        | None -> failwith "bench_serve: daemon response without telemetry")
      warm
  in
  let c50, c95, c99 = tail_latencies cold_walls in
  let w50, w95, w99 = tail_latencies warm_walls in
  let cold_rps = float_of_int n_requests /. cold_total_s in
  let warm_rps = float_of_int n_requests /. warm_total_s in
  let factor = warm_rps /. cold_rps in
  let registry_hits = Daemon.cache_hits caches in
  let registry_misses = Daemon.cache_misses caches in
  let registry_rate =
    float_of_int registry_hits
    /. float_of_int (max 1 (registry_hits + registry_misses))
  in
  let eval_hits = evals_after.Redundancy_opt.hits - evals_before.Redundancy_opt.hits in
  let eval_misses =
    evals_after.Redundancy_opt.misses - evals_before.Redundancy_opt.misses
  in
  let eval_rate =
    float_of_int eval_hits /. float_of_int (max 1 (eval_hits + eval_misses))
  in
  let sfp_hits = sfp_after.Sfp_cache.total_hits - sfp_before.Sfp_cache.total_hits in
  let sfp_misses =
    sfp_after.Sfp_cache.total_misses - sfp_before.Sfp_cache.total_misses
  in
  Printf.printf
    "cold (one-shot): %.2fs total, %.1f req/s — p50 %.4fs p95 %.4fs p99 %.4fs\n\
     warm (daemon):   %.2fs total, %.1f req/s — p50 %.4fs p95 %.4fs p99 %.4fs\n\
     warm-over-cold throughput factor: %.2fx\n\
     cache registry: %d problem buckets, %d hits / %d misses (%.0f%% reuse)\n\
     candidate evaluations (warm pass): %d hits / %d misses (%.0f%% hit rate)\n\
     SFP node tables (warm pass): %d hits / %d misses\n\
     fingerprints: %d/%d identical\n%!"
    cold_total_s cold_rps c50 c95 c99 warm_total_s warm_rps w50 w95 w99 factor
    (Daemon.cache_problems caches)
    registry_hits registry_misses (100.0 *. registry_rate) eval_hits
    eval_misses (100.0 *. eval_rate) sfp_hits sfp_misses
    (n_requests - divergences)
    n_requests;

  (* results/bench_serve.csv: one row per request. *)
  let rows =
    List.map2
      (fun (req, (_, cold_wall_s)) (daemon_resp, warm_wall_s) ->
        [ daemon_resp.Response.id;
          Request.command_name req.Request.command;
          req.Request.strategy;
          req.Request.source;
          Response.verdict_name daemon_resp.Response.verdict;
          Printf.sprintf "%.6f" cold_wall_s;
          Printf.sprintf "%.6f" warm_wall_s;
          "identical" ])
      (List.combine requests cold)
      (List.combine warm warm_walls)
  in
  save_csv "bench_serve.csv"
    ([ "id"; "command"; "strategy"; "subject"; "verdict"; "cold_wall_s";
       "warm_wall_s"; "fingerprint" ]
    :: rows);

  (* BENCH_serve.json: append this run to the trajectory. *)
  let num v = Json.Number v in
  let int v = Json.Number (float_of_int v) in
  let pass total_s rps (p50, p95, p99) =
    Json.Object
      [ ("total_s", num total_s);
        ("requests_per_s", num rps);
        ("p50_s", num p50);
        ("p95_s", num p95);
        ("p99_s", num p99) ]
  in
  let record =
    Json.Object
      [ ("timestamp", num (Unix.time ()));
        ("seed", int seed);
        ("quick", Json.Bool quick);
        ("requests", int n_requests);
        ("max_batch", int max_batch);
        ("divergences", int divergences);
        ("cold", pass cold_total_s cold_rps (c50, c95, c99));
        ("warm", pass warm_total_s warm_rps (w50, w95, w99));
        ("warm_over_cold_throughput", num factor);
        ( "cache_registry",
          Json.Object
            [ ("problems", int (Daemon.cache_problems caches));
              ("hits", int registry_hits);
              ("misses", int registry_misses);
              ("hit_rate", num registry_rate) ] );
        ( "evals",
          Json.Object
            [ ("hits", int eval_hits);
              ("misses", int eval_misses);
              ("hit_rate", num eval_rate) ] );
        ( "sfp_cache",
          Json.Object [ ("hits", int sfp_hits); ("misses", int sfp_misses) ]
        ) ]
  in
  append_trajectory "BENCH_serve.json" record
