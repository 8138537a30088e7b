(* synth-cells: Section 7 cells optimized in-process.

   Each op is one cold Design_strategy.run of one application under one
   hardening policy at one SER x HPD corner, with the configuration of
   Synthetic.run_cell (memoize on, certify off, no pre-flight) on one
   domain.  A pass runs every op of the population once, in an order
   drawn from the seed; a run makes whole passes until --seconds is
   spent, so every run does the same work and the rates of different
   seeds are comparable. *)

module Workload = Ftes_gen.Workload
module Config = Ftes_core.Config
module DS = Ftes_core.Design_strategy
module RO = Ftes_core.Redundancy_opt
module Design = Ftes_model.Design
module Span = Ftes_obs.Span
module Sink = Ftes_obs.Sink
module Metrics = Ftes_obs.Metrics
module Json = Ftes_util.Json

(* The population is generated from a fixed seed: the work of
   different population seeds differs by up to 3.5x on the same
   corner, far beyond any bound a regression gate can use.  --seed
   draws the op order. *)
let population_seed = 2009

let apps = 16

let corners = [ (1e-12, 0.05); (1e-10, 1.0) ]

let policies = [ Config.Fixed_min; Config.Fixed_max; Config.Optimize ]

type op = { key : string; problem : Ftes_model.Problem.t; config : Config.t }

let build_ops () =
  let specs = Workload.paper_suite ~count:apps ~seed:population_seed () in
  List.concat_map
    (fun (ser, hpd) ->
      List.concat_map
        (fun (spec : Workload.app_spec) ->
          let problem = Workload.problem_of_spec { Workload.ser; hpd } spec in
          List.map
            (fun policy ->
              { key =
                  Printf.sprintf "a%02d-p%d-ser%g-hpd%g-%s" spec.Workload.index
                    spec.Workload.n_processes ser hpd (Config.policy_name policy);
                problem;
                config = Config.with_hardening policy Config.default })
            policies)
        specs)
    corners
  |> Array.of_list

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* The op's result: cost and design, or "none" when no design meets
   the deadline and the reliability goal. *)
let digest = function
  | None -> "none"
  | Some (s : DS.solution) ->
      let r = s.DS.result in
      let d = r.RO.design in
      Ftes_util.Fingerprint.of_string
        (Printf.sprintf "%h|%s|%s|%s|%s|%d" r.RO.cost (ints d.Design.members)
           (ints d.Design.levels) (ints d.Design.reexecs) (ints d.Design.mapping)
           s.DS.explored)

let solve op = DS.run ~config:op.config op.problem

let pins () =
  Array.to_list (build_ops ()) |> List.map (fun op -> (op.key, digest (solve op)))

(* The op indices in the order of a pass: the first pass in population
   order, every later one a fresh seeded permutation. *)
let order ~seed ~pass n =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  if pass > 0 then
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
  a

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type sample = { op : int; ms : float; words : float; digest : string }

(* Whole passes until [seconds] have elapsed; [f] runs one op.  Returns
   the samples, the first solution of each op (only those are kept, so
   the run's own memory does not grow with the number of passes), and
   the peak RSS at the end of the first pass.
   That peak is the one peak_rss_mb reports: the heap's high-water mark
   depends on when major collections fall between ops, so over seeded
   orders and a varying number of passes it differs by 15% from run to
   run, while the first pass, in population order, always reaches the
   same one. *)
let passes ~calib ~seed ~seconds ops f =
  let t0 = Proc.now_ns () in
  let samples = ref [] and first_pass_rss_kb = ref 0 in
  let first = Hashtbl.create 128 in
  let pass = ref 0 in
  while !pass = 0 || Proc.seconds_since t0 < seconds do
    Array.iteri
      (fun k i ->
        if k mod Calib.ops_per_probe = 0 then Calib.probe calib;
        let w0 = alloc_words () in
        let s0 = Proc.now_ns () in
        let solution = f ops.(i) in
        let s1 = Proc.now_ns () in
        let words = alloc_words () -. w0 in
        if not (Hashtbl.mem first i) then Hashtbl.replace first i solution;
        samples :=
          { op = i; ms = float_of_int (s1 - s0) /. 1e6; words; digest = digest solution }
          :: !samples)
      (order ~seed ~pass:!pass (Array.length ops));
    if !pass = 0 then first_pass_rss_kb := Host.self_maxrss_kb ();
    incr pass
  done;
  (List.rev !samples, first, !first_pass_rss_kb)

(* Re-certify each op's emitted design with the static verifier,
   outside the timed region; every run of an op whose design fails is a
   failed op.  Repeated runs of an op are checked through their digest. *)
let gate pins ops first samples =
  let certified i =
    match Hashtbl.find_opt first i with
    | Some (Some sol) ->
        let op = ops.(i) in
        Ftes_verify.Report.ok
          (Ftes_verify.Verify.certify ~slack:op.config.Config.slack
             ~bus:op.config.Config.bus op.problem sol.DS.result.RO.design
             sol.DS.schedule)
    | Some None | None -> true
  in
  let bad = Hashtbl.create 128 in
  Hashtbl.iter (fun i _ -> if not (certified i) then Hashtbl.replace bad i ()) first;
  let tally = Gate.tally () in
  List.iter
    (fun s ->
      Gate.check tally pins Catalog.Synth ~key:ops.(s.op).key ~digest:s.digest
        ~failed_verdict:(Hashtbl.mem bad s.op))
    samples;
  tally

let setup_s () =
  let times =
    List.init 9 (fun _ ->
        let t0 = Proc.now_ns () in
        ignore (Sys.opaque_identity (build_ops ()));
        Proc.seconds_since t0)
  in
  Stats.median times

let run ~pins ~seed ~seconds ~trace =
  let setup_s = setup_s () in
  let ops = build_ops () in
  let timed_seconds = if trace then seconds /. 2.0 else seconds in
  let calib = Calib.create () in
  let samples, first, rss_kb = passes ~calib ~seed ~seconds:timed_seconds ops solve in
  let ops_per_s = Stats.rate (List.map (fun s -> s.ms) samples) in
  let peak_rss_mb = float_of_int rss_kb /. 1024.0 in
  let ms = Stats.key_means (List.map (fun s -> (s.op, s.ms)) samples) in
  let tail = Stats.tail ms in
  let n = float_of_int (List.length samples) in
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", ops_per_s);
      ("op_p50_ms", Stats.median ms);
      ("op_tail_ms", tail.Stats.value);
      ("peak_rss_mb", peak_rss_mb);
      ("alloc_words_per_op", Stats.sum (List.map (fun s -> s.words) samples) /. n) ]
  in
  let properties =
    [ ("apps", Json.Number (float_of_int apps));
      ("population_seed", Json.Number (float_of_int population_seed));
      ("ops_per_pass", Json.Number (float_of_int (Array.length ops)));
      ("passes", Json.Number (float_of_int (List.length samples / Array.length ops))) ]
  in
  if not trace then begin
    let tally = gate pins ops first samples in
    { Report.workload = Catalog.Synth;
      tally;
      values = e2e @ [ ("fail_ratio", Gate.fail_ratio tally) ];
      notes =
        [ ("op_p50_ms", "each sample taken as its op's mean over the passes");
          ("op_tail_ms", Stats.describe tail);
          ("peak_rss_mb", "this process, at the end of the first pass (population order)");
          ("alloc_words_per_op", "GC words, minor + major - promoted") ];
      properties;
      breakdown = None;
      calib }
  end
  else begin
    (* Traced half: span aggregation plus a per-op in-memory sink whose
       events fold into the self-time table as each op ends. *)
    let tr = Tracing.create () in
    Metrics.reset ();
    let traced op =
      let sink = Sink.memory () in
      Span.configure ~sink ~aggregate:true ();
      let solution = Span.with_ ~name:"bench/synth-op" (fun () -> solve op) in
      Span.disable ();
      List.iter (Tracing.add tr) (Sink.memory_events sink);
      solution
    in
    let tsamples, _, _ = passes ~calib ~seed ~seconds:timed_seconds ops traced in
    let snapshot = Metrics.snapshot () in
    let counter name =
      float_of_int (Option.value ~default:0 (Metrics.find_counter snapshot name))
    in
    let tn = float_of_int (List.length tsamples) in
    let op_wall_ms = Tracing.incl_ns tr "bench/synth-op" /. 1e6 in
    let chrome = Proc.out_path (Printf.sprintf "synth-cells-seed%d.trace.json" seed) in
    Tracing.write_chrome tr chrome;
    let layers =
      Layers.kernel ~ops:tn ~counter tr
      @ [ ( "obs.tracing_overhead_ratio",
            Stats.rate (List.map (fun s -> s.ms) tsamples) /. ops_per_s ) ]
    in
    let tally = gate pins ops first (samples @ tsamples) in
    { Report.workload = Catalog.Synth;
      tally;
      values = layers;
      notes = [ ("chrome_trace", chrome) ];
      properties;
      calib;
      breakdown =
        Some
          ("  self time by layer over the traced ops:\n"
          ^ Tracing.rows_to_text ~op_wall_ms (Tracing.rows tr)) }
  end
