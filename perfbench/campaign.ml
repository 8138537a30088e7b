(* campaign-shards: `ftes campaign run` over a Section 7 manifest, with
   more shards than worker processes, then `ftes campaign merge`.

   Every campaign runs the same manifest, on the fixed synth-cells
   population.  The seed does not change it: the order of the cell
   axes, the only other input left free, moves the workers' peak RSS
   by up to 30% (85-115 MB for the orders tried), so a seeded order
   would put that into the run-to-run spread. *)

module Manifest = Ftes_campaign.Manifest
module Checkpoint = Ftes_campaign.Checkpoint
module Merge = Ftes_campaign.Merge
module Config = Ftes_core.Config
module Json = Ftes_util.Json

let apps = 16

let shards = 4

let sers = [ 1e-12; 1e-10 ]

let hpds = [ 0.05; 1.0 ]

let policies = [ Config.Fixed_min; Config.Fixed_max; Config.Optimize ]

let cli_policy = function
  | Config.Fixed_min -> "min"
  | Config.Fixed_max -> "max"
  | Config.Optimize -> "opt"

let floats l = String.concat "," (List.map (Printf.sprintf "%g") l)

let manifest () =
  Manifest.make ~sers ~hpds ~policies ~apps ~seed:Synth.population_seed ~shards ()

let pin_key = "merged"

let pins () = [ (pin_key, Merge.fingerprint (Merge.run_sequential ~manifest:(manifest ()))) ]

type run = {
  ops : int;
  wall_s : float;  (** run + merge. *)
  run_s : float;
  merge_s : float;
  ok : bool;  (** both commands exited 0 (the merge self-certifies). *)
  fingerprint : string;
  alloc_words : float;
  worker_cpu_s : float;
  cell_ms : float list;  (** per shard and cell: elapsed ms per application. *)
  compute_s : float;  (** sum of the checkpoints' elapsed_s. *)
  checkpoint_kb : float;
  cells_done : float;  (** the parent's campaign.cells_done, under --metrics. *)
}

let merge_fingerprint path =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "merged" :: rest -> (
          match List.rev rest with fp :: "fingerprint" :: _ -> Some fp | _ -> None)
      | _ -> None)
    (Proc.read_lines path)

let run_campaign ?(metrics = false) ~jobs ~index () =
  let dir = Proc.out_path (Printf.sprintf "campaign-%d" index) in
  Proc.remove_tree dir;
  let file name = Proc.out_path (Printf.sprintf "campaign-%d.%s" index name) in
  let obs name = if metrics then [ "--metrics"; file (name ^ ".metrics.csv") ] else [] in
  let cpu0 = Proc.children_cpu_s () in
  let t0 = Proc.now_ns () in
  let run_code =
    Proc.run ~stdout_path:(file "run.out") ~stderr_path:(file "run.err")
      ([ "campaign"; "run"; "--dir"; dir; "--apps"; string_of_int apps;
         "--shards"; string_of_int shards; "--jobs"; string_of_int jobs;
         "--sers"; floats sers; "--hpds"; floats hpds;
         "--policies"; String.concat "," (List.map cli_policy policies);
         "--seed"; string_of_int Synth.population_seed ]
      @ obs "run")
  in
  let t1 = Proc.now_ns () in
  let worker_cpu_s = Proc.children_cpu_s () -. cpu0 in
  let merge_code =
    Proc.run ~stdout_path:(file "merge.out") ~stderr_path:(file "merge.err")
      ([ "campaign"; "merge"; "--dir"; dir ] @ obs "merge")
  in
  let t2 = Proc.now_ns () in
  let m = manifest () in
  let checkpoints =
    List.filter_map
      (fun shard -> Result.to_option (Checkpoint.load ~manifest:m ~dir shard))
      (List.init shards Fun.id)
  in
  let cell_ms =
    List.concat_map
      (fun (c : Checkpoint.t) ->
        List.map
          (fun (cell : Checkpoint.cell_result) ->
            cell.Checkpoint.elapsed_s *. 1e3 /. float_of_int (c.Checkpoint.hi - c.Checkpoint.lo))
          c.Checkpoint.cells)
      checkpoints
  in
  let compute_s =
    Stats.sum
      (List.concat_map
         (fun (c : Checkpoint.t) ->
           List.map (fun (cell : Checkpoint.cell_result) -> cell.Checkpoint.elapsed_s) c.Checkpoint.cells)
         checkpoints)
  in
  let checkpoint_kb =
    Stats.sum (List.init shards (fun i -> Proc.file_kb (Checkpoint.path ~dir i)))
  in
  let r =
    { ops = apps * Manifest.n_cells m;
      wall_s = float_of_int (t2 - t0) /. 1e9;
      run_s = float_of_int (t1 - t0) /. 1e9;
      merge_s = float_of_int (t2 - t1) /. 1e9;
      ok = run_code = 0 && merge_code = 0 && List.length checkpoints = shards;
      fingerprint = Option.value ~default:"none" (merge_fingerprint (file "merge.out"));
      alloc_words = Proc.allocated_words (file "run.err") +. Proc.allocated_words (file "merge.err");
      worker_cpu_s;
      cell_ms;
      compute_s;
      checkpoint_kb;
      cells_done = Proc.metrics_counters [ file "run.metrics.csv" ] "campaign.cells_done" }
  in
  Proc.remove_tree dir;
  r

let campaigns ?metrics ~calib ~jobs ~first ~seconds () =
  let t0 = Proc.now_ns () in
  let rec go i acc =
    if i > first && Proc.seconds_since t0 >= seconds then List.rev acc
    else begin
      (* A campaign cannot be paused, so its probes come before it. *)
      for _ = 1 to 4 do
        Calib.probe calib
      done;
      go (i + 1) (run_campaign ?metrics ~jobs ~index:i () :: acc)
    end
  in
  go first []

let gate pins runs =
  let tally = Gate.tally () in
  List.iter
    (fun r ->
      for _ = 1 to r.ops do
        Gate.check tally pins Catalog.Campaign ~key:pin_key ~digest:r.fingerprint
          ~failed_verdict:(not r.ok)
      done)
    runs;
  tally

(* Merged results per second of campaign wall, each counting its merge. *)
let ops_per_s runs =
  Stats.ratio
    (float_of_int (List.fold_left (fun acc r -> acc + r.ops) 0 runs))
    (Stats.sum (List.map (fun r -> r.wall_s) runs))

let run ~pins ~seed:_ ~seconds ~trace =
  let jobs = Host.nproc () in
  let setup_s = Stats.median (List.init 9 (fun _ -> Proc.startup_s ())) in
  let timed_seconds = if trace then seconds /. 2.0 else seconds in
  let calib = Calib.create () in
  let runs = campaigns ~calib ~jobs ~first:0 ~seconds:timed_seconds () in
  let n_ops = float_of_int (List.fold_left (fun acc r -> acc + r.ops) 0 runs) in
  let cell_ms =
    Stats.key_means (List.concat_map (fun r -> List.mapi (fun i ms -> (i, ms)) r.cell_ms) runs)
  in
  let tail = Stats.tail ~top:90.0 cell_ms in
  let mean f l = Stats.ratio (Stats.sum (List.map f l)) (float_of_int (List.length l)) in
  let properties =
    [ ("apps", Json.Number (float_of_int apps));
      ("cells", Json.Number (float_of_int (List.length sers * List.length hpds * List.length policies)));
      ("shards", Json.Number (float_of_int shards));
      ("jobs", Json.Number (float_of_int jobs));
      ("nproc", Json.Number (float_of_int (Host.nproc ())));
      ("campaigns", Json.Number (float_of_int (List.length runs)));
      ("population_seed", Json.Number (float_of_int Synth.population_seed)) ]
  in
  if not trace then
    let tally = gate pins runs in
    { Report.workload = Catalog.Campaign;
      tally;
      values =
        [ ("setup_s", setup_s);
          ("ops_per_s", ops_per_s runs);
          ("op_p50_ms", Stats.median cell_ms);
          ("op_tail_ms", tail.Stats.value);
          ("peak_rss_mb", float_of_int (Host.children_maxrss_kb ()) /. 1024.0);
          ("alloc_words_per_op", Stats.sum (List.map (fun r -> r.alloc_words) runs) /. n_ops);
          ("fail_ratio", Gate.fail_ratio tally) ];
      notes =
        [ ( "op_p50_ms",
            "per shard and cell: checkpoint elapsed_s over its applications, \
             mean over the campaigns" );
          ("op_tail_ms", Stats.describe tail);
          ("peak_rss_mb", "largest of the campaign, worker and merge processes");
          ("alloc_words_per_op", "GC words of every process (OCAMLRUNPARAM=v=0x400) per merged result") ];
      properties;
      breakdown = None;
      calib }
  else
    let traced =
      campaigns ~metrics:true ~calib ~jobs ~first:(List.length runs) ~seconds:timed_seconds ()
    in
    let all = runs @ traced in
    let wall_ms = Stats.sum (List.map (fun r -> r.wall_s *. 1e3) traced) in
    let tr = Tracing.create () in
    (* The campaign's phases as spans: the run process, inside it the
       cell computation spread over the jobs, and the merge process. *)
    List.iter
      (fun r ->
        let add ?parent name s =
          Tracing.add tr
            { Ftes_obs.Sink.name; domain = 0; depth = (if parent = None then 0 else 1);
              parent; start_ns = 0; dur_ns = int_of_float (s *. 1e9); alloc_b = 0.0 }
        in
        add ~parent:"campaign/run" "campaign/cells" (r.compute_s /. float_of_int jobs);
        add "campaign/run" r.run_s;
        add "campaign/merge" r.merge_s;
        Tracing.add_unattributed tr
          ~ns:(Float.max 0.0 ((r.wall_s -. r.run_s -. r.merge_s) *. 1e9))
          ~alloc_b:0.0)
      traced;
    let layers =
      [ ("campaign.cell_compute_s", mean (fun r -> r.compute_s) all);
        ( "campaign.parallel_efficiency",
          mean (fun r -> Stats.ratio r.compute_s (r.run_s *. float_of_int jobs)) all );
        ("campaign.worker_cpu_s", mean (fun r -> r.worker_cpu_s) all);
        ( "campaign.checkpoint_kb_per_cell",
          mean (fun r -> Stats.ratio r.checkpoint_kb r.cells_done) traced );
        ("campaign.merge_s", mean (fun r -> r.merge_s) all);
        ("obs.tracing_overhead_ratio", ops_per_s traced /. ops_per_s runs) ]
    in
    { Report.workload = Catalog.Campaign;
      tally = gate pins all;
      values = layers;
      notes =
        [ ( "campaign.checkpoint_kb_per_cell",
            "computed: final checkpoint file sizes over the parent's campaign.cells_done" );
          ("campaign.cell_compute_s", "sum of checkpoint elapsed_s per campaign") ];
      properties;
      calib;
      breakdown =
        Some
          ("  self time by phase over the traced campaigns (--metrics on; \
            campaign/cells is the checkpoints' elapsed_s over the jobs):\n"
          ^ Tracing.rows_to_text ~op_wall_ms:wall_ms (Tracing.rows tr)) }
