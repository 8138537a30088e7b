(* The benchmark's vocabulary: its workloads and every metric it
   reports, each with its unit and the workloads it applies to.  The
   printer, the self-test and BENCHMARK.json all follow this one list. *)

type workload = Synth | Serve | Campaign

let workloads = [ Synth; Serve; Campaign ]

let workload_name = function
  | Synth -> "synth-cells"
  | Serve -> "serve-session"
  | Campaign -> "campaign-shards"

let workload_of_name name =
  List.find_opt (fun w -> workload_name w = name) workloads

let why = function
  | Synth ->
      "in-process Sec. 7 cells under MIN/MAX/OPT: the sched, sfp and core \
       kernels do the work; driver, codecs and what-if are idle"
  | Serve ->
      "closed-loop designer session against ftes serve: JSON codecs, \
       certification, cache registries and what-if migration do the work"
  | Campaign ->
      "sharded ftes campaign run plus merge: process fan-out, atomic \
       checkpoint writes and the certified re-reading merge"

type better = Lower | Higher

type kind =
  | Gated  (** end to end, listed in BENCHMARK.json with a bound. *)
  | Printed  (** end to end, printed in the record but not gated. *)
  | Layer  (** per layer, reported by the traced run. *)

type metric = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  applies : workload list;
}

let m ?(applies = workloads) kind name unit_ better =
  { name; unit_; better; kind; applies }

(* End-to-end metrics.  The gated ones are defined on every workload
   and never read 0; fail_ratio is 0 on healthy workloads and the three
   latency classes exist only in a serve session, so those are printed
   on their workloads and carried by the "failed"/"attempted" fields,
   not gated. *)
let end_to_end =
  [ m Gated "setup_s" "s" Lower;
    m Gated "ops_per_s" "op/s" Higher;
    m Gated "op_p50_ms" "ms" Lower;
    m Gated "op_tail_ms" "ms" Lower;
    m Gated "peak_rss_mb" "MB" Lower;
    m Gated "alloc_words_per_op" "words" Lower;
    m Printed "fail_ratio" "ratio" Lower;
    m Printed ~applies:[ Serve ] "warm_p50_ms" "ms" Lower;
    m Printed ~applies:[ Serve ] "cold_p50_ms" "ms" Lower;
    m Printed ~applies:[ Serve ] "whatif_p50_ms" "ms" Lower ]

let kernel_ws = [ Synth; Serve ]

let per_layer =
  let l ?(applies = kernel_ws) name unit_ better =
    m ~applies Layer name unit_ better
  in
  let serve = [ Serve ] and campaign = [ Campaign ] in
  [ l "core.evaluate_per_op" "count" Lower;
    l "core.evaluate_self_us" "us" Lower;
    l "core.alloc_words_per_eval" "words" Lower;
    l "core.eval_hit_ratio" "ratio" Higher;
    l "core.mapping_ms_per_op" "ms" Lower;
    l "core.tabu_iterations_per_op" "count" Lower;
    l "core.explored_per_op" "count" Lower;
    l "core.probe_shortcuts_per_op" "count" Higher;
    l "sched.schedules_per_op" "count" Lower;
    l "sched.schedule_ns" "ns" Lower;
    l "sched.alloc_words_per_schedule" "words" Lower;
    l "sched.prio_memo_hit_ratio" "ratio" Higher;
    l "sfp.node_tables_per_op" "count" Lower;
    l "sfp.node_table_ns" "ns" Lower;
    l "sfp.cache_hit_ratio" "ratio" Higher;
    l "sfp.exp_elided_per_op" "count" Higher;
    l ~applies:serve "analyze.preflight_ms" "ms" Lower;
    l ~applies:serve "analyze.pruned_architectures_per_req" "count" Higher;
    l "verify.certify_ms_per_req" "ms" Lower;
    l ~applies:serve "pareto.insert_ns" "ns" Lower;
    l ~applies:serve "pareto.dominated_ratio" "ratio" Lower;
    l ~applies:serve "bnb.solve_ms_per_req" "ms" Lower;
    l ~applies:serve "whatif.sfp_kept_ratio" "ratio" Higher;
    l ~applies:serve "whatif.evals_kept_ratio" "ratio" Higher;
    l ~applies:serve "whatif.steps_replayed_ratio" "ratio" Higher;
    l ~applies:serve "driver.overhead_us_p50" "us" Lower;
    l ~applies:serve "driver.parse_us_per_kb" "us/KB" Lower;
    l ~applies:serve "driver.serialize_us_per_kb" "us/KB" Lower;
    l ~applies:serve "driver.registry_hit_ratio" "ratio" Higher;
    l ~applies:serve "driver.whatif_rejected" "ratio" Lower;
    l ~applies:campaign "campaign.cell_compute_s" "s" Lower;
    l ~applies:campaign "campaign.parallel_efficiency" "ratio" Higher;
    l ~applies:campaign "campaign.worker_cpu_s" "s" Lower;
    l ~applies:campaign "campaign.checkpoint_kb_per_cell" "KB" Lower;
    l ~applies:campaign "campaign.merge_s" "s" Lower;
    l ~applies:workloads "obs.tracing_overhead_ratio" "ratio" Higher ]

(* An end-to-end time or rate, scaled by the host's slowdown (see
   Calib); counts, sizes and per-layer metrics are reported as read. *)
let host_scaled m ~slowdown v =
  match (m.kind, m.unit_) with
  | (Gated | Printed), ("s" | "ms") -> v /. slowdown
  | (Gated | Printed), "op/s" -> v *. slowdown
  | _ -> v

let all = end_to_end @ per_layer

let gated = List.filter (fun m -> m.kind = Gated) end_to_end

let better_name = function Lower -> "lower" | Higher -> "higher"
