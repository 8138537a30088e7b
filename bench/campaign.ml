(* Campaign benchmark (PR 10): the sharded exploration harness at
   population scale.

   1. Sequential reference: the full population run in-process through
      [Merge.run_sequential] — no shards, no checkpoints.

   2. Sharded campaign: the same manifest fanned out to 4 worker
      processes through the real [ftes campaign-worker] path, then
      merged from the checkpoints.  The merged fingerprint must equal
      the sequential one byte for byte — the program exits non-zero on
      any divergence.

   3. Kill + resume: a second campaign whose shard 1 worker is killed
      (exit 130) after its first cell, then resumed.  The resume must
      skip every complete shard (resumed < shards is asserted), and the
      re-merged fingerprint must again equal the sequential one.

   Environment knobs (shared with the main harness):
     FTES_APPS   population size (default 1500; 12 quick)
     FTES_SEED   master seed (default 42)
     FTES_JOBS   concurrent worker processes (default 4)
     FTES_BIN    ftes binary (default ../bin/ftes.exe next to this exe)
     FTES_QUICK  fast smoke run

   Appends one trajectory record per run to BENCH_campaign.json
   (created on first use) and rewrites results/bench_campaign.csv. *)

module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Runner = Ftes_campaign.Runner
module Merge = Ftes_campaign.Merge

open Harness

let apps = env_int "FTES_APPS" (if quick then 12 else 1_500)

let jobs = env_int "FTES_JOBS" 4

let shards = 4

let exe =
  match Sys.getenv_opt "FTES_BIN" with
  | Some path -> path
  | None ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "ftes.exe"))

let mk_dir () =
  let path = Filename.temp_file "ftes-bench-campaign" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

let checkpoints_of ~manifest ~dir =
  List.init shards (fun shard ->
      match Checkpoint.load ~manifest ~dir shard with
      | Ok c -> c
      | Error e -> failwith ("bench_campaign: " ^ e))

let merged_of ~manifest ~dir =
  match Merge.of_checkpoints ~manifest (checkpoints_of ~manifest ~dir) with
  | Ok m -> m
  | Error e -> failwith ("bench_campaign: " ^ e)

let require label = function
  | [] -> ()
  | failed ->
      failwith
        (Printf.sprintf "bench_campaign: %s: %s" label
           (String.concat "; "
              (List.map
                 (fun (shard, reason) ->
                   Printf.sprintf "shard %d: %s" shard reason)
                 failed)))

(* --- result files --- *)

let () =
  let manifest =
    Manifest.make ~sers:[ 1e-11 ] ~hpds:[ 0.25 ]
      ~policies:[ Config.Fixed_min; Config.Optimize ] ~apps ~seed ~shards ()
  in
  Printf.printf
    "Campaign benchmark: %d apps, %d shards, %d jobs, seed %d%s\n\
     worker binary: %s\n%!"
    apps shards jobs seed
    (if quick then " (quick)" else "")
    exe;
  (* 1. Sequential reference. *)
  let seq_wall, sequential = time (fun () -> Merge.run_sequential ~manifest) in
  let fingerprint = Merge.fingerprint sequential in
  Printf.printf "sequential: %.2fs, fingerprint %s\n%!" seq_wall fingerprint;
  (* 2. Sharded campaign over real worker processes. *)
  let dir = mk_dir () in
  Manifest.save ~dir manifest;
  let sharded_wall, summary =
    time (fun () -> Runner.run_processes ~jobs ~exe ~manifest ~dir ())
  in
  require "sharded run" summary.Runner.failed;
  let merged = merged_of ~manifest ~dir in
  Printf.printf "4-shard:    %.2fs (%d executed), fingerprint %s\n%!"
    sharded_wall summary.Runner.executed (Merge.fingerprint merged);
  if not (Merge.equal merged sequential) then
    failwith "bench_campaign: sharded merge diverged from the sequential run";
  (* 3. Kill one worker mid-run, resume, merge again. *)
  let dir2 = mk_dir () in
  Manifest.save ~dir:dir2 manifest;
  Unix.putenv "FTES_CAMPAIGN_KILL_AFTER" "1";
  Unix.putenv "FTES_CAMPAIGN_KILL_SHARD" "1";
  let killed = Runner.run_processes ~jobs ~exe ~manifest ~dir:dir2 () in
  Unix.putenv "FTES_CAMPAIGN_KILL_AFTER" "";
  if not (List.mem_assoc 1 killed.Runner.failed) then
    failwith "bench_campaign: the planted kill of shard 1 did not happen";
  let resume_wall, resumed =
    time (fun () -> Runner.run_processes ~jobs ~exe ~manifest ~dir:dir2 ())
  in
  require "resume" resumed.Runner.failed;
  if resumed.Runner.executed >= shards then
    failwith "bench_campaign: resume recomputed complete shards";
  if resumed.Runner.skipped <> killed.Runner.executed then
    failwith "bench_campaign: resume did not skip every completed shard";
  Printf.printf
    "resume:     %.2fs — %d skipped, %d re-run (%d from a partial \
     checkpoint)\n%!"
    resume_wall resumed.Runner.skipped resumed.Runner.executed
    resumed.Runner.resumed;
  let remerged = merged_of ~manifest ~dir:dir2 in
  if Merge.fingerprint remerged <> fingerprint then
    failwith "bench_campaign: resumed merge diverged from the sequential run";
  let speedup = seq_wall /. Float.max 1e-9 sharded_wall in
  Printf.printf
    "merge fingerprints identical across all three runs: %s\n\
     speedup %.2fx, resume overhead %.1f%% of the sharded wall\n%!"
    fingerprint speedup
    (100.0 *. resume_wall /. Float.max 1e-9 sharded_wall);
  save_csv "bench_campaign.csv"
    [ [ "apps"; "shards"; "jobs"; "seed"; "quick"; "seq_wall_s";
        "sharded_wall_s"; "speedup"; "resume_wall_s"; "resume_executed";
        "resume_skipped"; "fingerprint" ];
      [ string_of_int apps;
        string_of_int shards;
        string_of_int jobs;
        string_of_int seed;
        string_of_bool quick;
        Printf.sprintf "%.2f" seq_wall;
        Printf.sprintf "%.2f" sharded_wall;
        Printf.sprintf "%.2f" speedup;
        Printf.sprintf "%.2f" resume_wall;
        string_of_int resumed.Runner.executed;
        string_of_int resumed.Runner.skipped;
        fingerprint ] ];
  append_trajectory "BENCH_campaign.json"
    (Json.Object
       [ ("bench", Json.String "campaign");
         ("apps", Json.Number (float_of_int apps));
         ("shards", Json.Number (float_of_int shards));
         ("jobs", Json.Number (float_of_int jobs));
         ("seed", Json.Number (float_of_int seed));
         ("quick", Json.Bool quick);
         ("seq_wall_s", Json.Number seq_wall);
         ("sharded_wall_s", Json.Number sharded_wall);
         ("speedup", Json.Number speedup);
         ("resume_wall_s", Json.Number resume_wall);
         ("resume_executed",
          Json.Number (float_of_int resumed.Runner.executed));
         ("resume_skipped", Json.Number (float_of_int resumed.Runner.skipped));
         ("fingerprint", Json.String fingerprint) ])
