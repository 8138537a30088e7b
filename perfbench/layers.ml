(* Per-layer metrics of the optimizer kernels, from span aggregates and
   the program's always-on counters.  Shared by the in-process synth
   run and the daemon's --trace/--metrics outputs. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let kernel ~ops ~counter tr =
  let per_op x = Stats.ratio x ops in
  let count name = float_of_int (Tracing.count tr name) in
  let mean_ns name = Stats.ratio (Tracing.incl_ns tr name) (count name) in
  let words_per name = Stats.ratio (Tracing.incl_alloc_b tr name /. 8.0) (count name) in
  let evaluate_self_ns =
    Tracing.incl_ns tr "opt/evaluate"
    -. Tracing.children_ns tr "opt/evaluate" (fun c ->
           starts_with "sched/" c || starts_with "sfp/" c)
  in
  let prio_lookups = counter "kernel.prio_hits" +. counter "kernel.prio_misses" in
  [ ("core.evaluate_per_op", per_op (count "opt/evaluate"));
    ("core.evaluate_self_us", Stats.ratio evaluate_self_ns (count "opt/evaluate") /. 1e3);
    ("core.alloc_words_per_eval", words_per "opt/evaluate");
    ("core.eval_hit_ratio", Stats.ratio (counter "evals.hits") (counter "evals.lookups"));
    ("core.mapping_ms_per_op", per_op (Tracing.incl_ns tr "mapping/run" /. 1e6));
    ("core.tabu_iterations_per_op", per_op (counter "tabu.iterations"));
    ("core.explored_per_op", per_op (counter "strategy.explored"));
    ("core.probe_shortcuts_per_op", per_op (counter "kernel.probe_shortcuts"));
    ("sched.schedules_per_op", per_op (counter "sched.schedules"));
    ("sched.schedule_ns", mean_ns "sched/schedule");
    ("sched.alloc_words_per_schedule", words_per "sched/schedule");
    ("sched.prio_memo_hit_ratio", Stats.ratio (counter "kernel.prio_hits") prio_lookups);
    ("sfp.node_tables_per_op", per_op (counter "sfp.node_tables"));
    ("sfp.node_table_ns", mean_ns "sfp/node_table");
    ("sfp.cache_hit_ratio", Stats.ratio (counter "sfp_cache.hits") (counter "sfp_cache.lookups"));
    ("sfp.exp_elided_per_op", per_op (counter "kernel.grow_exp_elided"));
    ("verify.certify_ms_per_req", per_op (Tracing.self_ns tr "strategy/finalize" /. 1e6)) ]
