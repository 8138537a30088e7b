(* Equivalence suite for the evaluation kernels (the heap scheduler,
   the incremental SFP ascent and the bisected k-search): each must be
   bit-identical, call by call, to its reference in [Ftes_oracle], and
   the delta paths must demonstrably fire. *)

module Oracle = Ftes_oracle
module Prng = Ftes_util.Prng
module Task_graph = Ftes_model.Task_graph
module Design = Ftes_model.Design
module Problem = Ftes_model.Problem
module Application = Ftes_model.Application
module Platform = Ftes_model.Platform
module Sfp = Ftes_sfp.Sfp
module Incremental = Ftes_sfp.Incremental
module Bound = Ftes_sfp.Bound
module Scheduler = Ftes_sched.Scheduler
module Config = Ftes_core.Config
module Re_execution_opt = Ftes_core.Re_execution_opt
module Redundancy_opt = Ftes_core.Redundancy_opt
module Metrics = Ftes_obs.Metrics

let counter_value name = Metrics.counter_value (Metrics.counter name)

let feq = Oracle.Bitwise.float

let random_design = Helpers.random_design

let bus_policies = Helpers.bus_policies

let slack_policies = Helpers.slack_policies

(* --- Scheduler: heap pick = oracle rescan --- *)

let prop_heap_schedule_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"heap schedule = reference rescan (all slack x bus policies)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 17) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 997)
          ~n:(8 + (seed mod 13))
          ()
      in
      let design = random_design prng problem in
      let n = Task_graph.n (Problem.graph problem) in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let fast = Scheduler.schedule ~slack ~bus problem design in
              let reference =
                Oracle.Scheduler.schedule ~slack ~bus problem design
              in
              Oracle.Bitwise.schedule fast reference)
            bus_policies)
        (slack_policies prng n))

(* [schedule_length] runs the placement loop without a recorder (no
   entry/message records, inline FCFS bus booking), so it gets its own
   equivalence property: it must produce the oracle's makespan bit for
   bit. *)
let prop_schedule_length_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"length-only schedule = reference length (all slack x bus policies)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 71) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 911)
          ~n:(8 + (seed mod 13))
          ()
      in
      let design = random_design prng problem in
      let n = Task_graph.n (Problem.graph problem) in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let fast = Scheduler.schedule_length ~slack ~bus problem design in
              let reference =
                Oracle.Scheduler.schedule_length ~slack ~bus problem design
              in
              feq fast reference)
            bus_policies)
        (slack_policies prng n))

(* --- SFP: exceedance tables and folds are bit-identical --- *)

let random_probs prng =
  let n = 1 + Prng.int prng 6 in
  (* Mix magnitudes so some vectors saturate early and some never do. *)
  Array.init n (fun _ ->
      let scale = 10.0 ** float_of_int (- Prng.int prng 9) in
      Prng.float prng 0.4 *. scale)

let prop_exceed_vector_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.exceed_vector.(k) = Sfp.pr_exceeds ~k (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 3) in
      let a = Sfp.node_analysis ~kmax:12 (random_probs prng) in
      let v = Incremental.exceed_vector a in
      let ok = ref true in
      for k = 0 to 12 do
        if not (feq v.(k) (Sfp.pr_exceeds a ~k)) then ok := false
      done;
      !ok)

let prop_system_failure_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.system_failure = Sfp.system_failure_per_iteration"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 11) in
      let members = 1 + Prng.int prng 5 in
      let analyses =
        Array.init members (fun _ -> Sfp.node_analysis ~kmax:8 (random_probs prng))
      in
      let inc = Incremental.make (Array.map Incremental.node_vectors analyses) in
      let k = Array.init members (fun _ -> Prng.int prng 9) in
      let fast = Incremental.system_failure inc ~k in
      let reference = Sfp.system_failure_per_iteration analyses ~k in
      feq fast reference)

let prop_candidate_failure_bit_identical =
  QCheck.Test.make ~count:200
    ~name:"Incremental.candidate_failure = full fold on the bumped vector"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 23) in
      let members = 1 + Prng.int prng 5 in
      let analyses =
        Array.init members (fun _ -> Sfp.node_analysis ~kmax:8 (random_probs prng))
      in
      let inc = Incremental.make (Array.map Incremental.node_vectors analyses) in
      let k = Array.init members (fun _ -> Prng.int prng 8) in
      let prefix = Array.make (members + 1) 0.0 in
      Incremental.prefix_into inc ~k prefix;
      let ok = ref true in
      for j = 0 to members - 1 do
        let bumped = Array.copy k in
        bumped.(j) <- bumped.(j) + 1;
        let fast = Incremental.candidate_failure inc ~k ~prefix ~j in
        let reference = Sfp.system_failure_per_iteration analyses ~k:bumped in
        if not (feq fast reference) then ok := false
      done;
      !ok)

(* --- Re-execution ascent: incremental = oracle --- *)

let prop_for_mapping_matches_reference =
  QCheck.Test.make ~count:25
    ~name:"for_mapping (incremental, cached and uncached) = reference"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 41) in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 991) ~ser:1e-10
          ~n:(6 + (seed mod 9))
          ()
      in
      let design = random_design prng problem in
      let reference = Oracle.Re_execution_opt.search problem design in
      let fast = Re_execution_opt.search problem design in
      let cached =
        Re_execution_opt.search ~cache:(Ftes_par.Sfp_cache.create ()) problem
          design
      in
      Oracle.Bitwise.accepted fast reference
      && Oracle.Bitwise.accepted cached reference
      && Re_execution_opt.for_mapping problem design
         = Oracle.Re_execution_opt.for_mapping problem design)

(* --- Bound: binary search = linear scan --- *)

let prop_required_k_matches_scan =
  QCheck.Test.make ~count:300
    ~name:"Bound.required_k (bisection) = required_k_scan"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Prng.create (seed + 7) in
      let p = random_probs prng in
      let budget = 10.0 ** float_of_int (- Prng.int prng 14) in
      let ok = ref true in
      for kmax = 0 to 14 do
        if
          Bound.required_k p ~budget ~kmax
          <> Oracle.Bound.required_k_scan p ~budget ~kmax
        then ok := false
      done;
      !ok)

(* --- Delta paths demonstrably fire --- *)

(* Two members, every process mapped on the second: the empty member's
   exceedance clamps to zero at k = 0, so each greedy sweep must skip
   it. *)
let two_node_problem ~deadline_ms ~pfail =
  let graph =
    Task_graph.make ~n:2 [ { Task_graph.src = 0; dst = 1; transmission_ms = 1.0 } ]
  in
  let app =
    Application.make ~graph ~deadline_ms ~gamma:1e-7 ~recovery_overhead_ms:1.0
      ()
  in
  let node name p =
    Platform.node_type ~name
      ~versions:
        [| Platform.hversion ~level:1 ~cost:1.0 ~wcet_ms:[| 10.0; 10.0 |]
             ~pfail:[| p; p |] |]
  in
  Problem.make ~app ~library:[| node "A" 1e-9; node "B" pfail |]

let test_grow_skips_saturated_member () =
  let problem = two_node_problem ~deadline_ms:1000.0 ~pfail:1e-3 in
  let design =
    Design.make problem ~members:[| 0; 1 |] ~levels:[| 1; 1 |]
      ~reexecs:[| 0; 0 |] ~mapping:[| 1; 1 |]
  in
  let before = counter_value "kernel.grow_skips" in
  let k = Re_execution_opt.for_mapping problem design in
  let after = counter_value "kernel.grow_skips" in
  Alcotest.(check bool) "goal reachable" true (k <> None);
  Alcotest.(check bool) "empty member needs no re-executions" true
    ((Option.get k).(0) = 0);
  Alcotest.(check bool) "saturated candidates were skipped" true
    (after > before);
  Alcotest.(check (option (array int)))
    "skipping preserves the selected vector"
    (Oracle.Re_execution_opt.for_mapping problem design)
    k

(* An Optimize probe over a single fully-hardened unschedulable mapping
   memoizes its (None, best_len) outcome; an uncached probe of the same
   mapping must report the same outcome and best-effort length.  Per call, the evaluation behind it must match
   the oracles: the oracle ascent's re-executions and the oracle
   schedule's length, or no result and an infinite length when the
   oracle ascent finds the reliability goal unreachable (as it does at
   the higher failure probability). *)
let test_unschedulable_probe_matches_best_effort_length () =
  List.iter
    (fun pfail ->
      (* 10 ms WCETs against a 5 ms deadline: never schedulable. *)
      let problem = two_node_problem ~deadline_ms:5.0 ~pfail in
      let design =
        Design.make problem ~members:[| 0; 1 |] ~levels:[| 1; 1 |]
          ~reexecs:[| 0; 0 |] ~mapping:[| 0; 1 |]
      in
      let config = Config.default in
      let cache = Redundancy_opt.create_cache () in
      let outcome, best_len =
        Redundancy_opt.probe ~cache ~config problem design
      in
      Alcotest.(check bool) "mapping is unschedulable" true (outcome = None);
      let uncached, len2 = Redundancy_opt.probe ~config problem design in
      Alcotest.(check bool) "cached probe = uncached probe" true
        (uncached = None && feq len2 best_len);
      let evaluated =
        Redundancy_opt.evaluate ~cache config problem design
          design.Design.levels
      in
      match
        ( Oracle.Re_execution_opt.for_mapping ~kmax:config.Config.kmax problem
            design,
          evaluated )
      with
      | None, None ->
          Alcotest.(check bool) "unreachable goal: no best-effort length" true
            (best_len = infinity)
      | Some reexecs, Some r ->
          Alcotest.(check (array int)) "re-executions = oracle ascent" reexecs
            r.Redundancy_opt.design.Design.reexecs;
          Alcotest.(check bool) "best-effort length = oracle schedule length"
            true
            (feq best_len
               (Oracle.Scheduler.schedule_length ~slack:config.Config.slack
                  ~bus:config.Config.bus problem
                  { design with Design.reexecs }))
      | Some _, None | None, Some _ ->
          Alcotest.fail "evaluation disagrees with the oracle ascent")
    [ 1e-6; 1e-9 ]

(* --- Candidate evaluation: memoized = fresh = from-scratch SFP --- *)

let design_eq (a : Design.t) (b : Design.t) =
  a.members = b.members && a.levels = b.levels && a.reexecs = b.reexecs
  && a.mapping = b.mapping

let result_eq (a : Redundancy_opt.result) (b : Redundancy_opt.result) =
  design_eq a.design b.design
  && feq a.schedule_length b.schedule_length
  && feq a.cost b.cost && feq a.slack b.slack && feq a.margin b.margin

let result_opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> result_eq a b
  | Some _, None | None, Some _ -> false

(* The margin comes from the failure the k-search accepted (one SFP pass
   per evaluation), and memo keys share the design's arrays: a miss, a
   hit and an unmemoized evaluation must agree bit for bit, across
   every slack x bus policy.  Each evaluation is also checked call by
   call: its re-executions must be the oracle ascent's (no result when
   the oracle finds the goal unreachable), its margin a from-scratch
   [Sfp.evaluate] of the returned design and its length the oracle
   schedule's. *)
let prop_memoized_evaluation_matches_from_scratch =
  QCheck.Test.make ~count:20
    ~name:
      "memoized evaluate = unmemoized = from-scratch = oracle (all policies)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create (seed + 97) in
      (* A high soft-error rate on every third instance makes the goal
         unreachable at some hardening levels, so memoized [None]s are
         covered too. *)
      let ser = if seed mod 3 = 0 then 1e-6 else 1e-10 in
      let problem =
        Helpers.synthetic_problem ~seed:(seed mod 983) ~ser
          ~n:(6 + (seed mod 9))
          ()
      in
      let design = random_design prng problem in
      let levels = Array.copy design.Design.levels in
      let n = Task_graph.n (Problem.graph problem) in
      let matches_oracle config = function
        | None ->
            Oracle.Re_execution_opt.for_mapping ~kmax:config.Config.kmax
              problem
              (Design.with_levels design levels)
            = None
        | Some (r : Redundancy_opt.result) ->
            let verdict = Sfp.evaluate problem r.design in
            Oracle.Re_execution_opt.for_mapping ~kmax:config.Config.kmax
              problem r.design
            = Some r.design.Design.reexecs
            && feq r.margin
                 (Sfp.log10_margin problem.Problem.app
                    ~per_iteration_failure:verdict.Sfp.per_iteration_failure)
            && feq r.schedule_length
                 (Oracle.Scheduler.schedule_length ~slack:config.Config.slack
                    ~bus:config.Config.bus problem r.design)
            && r.design.Design.levels = levels
      in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let config = Config.make ~slack ~bus () in
              let cache = Redundancy_opt.create_cache () in
              let eval ?cache () =
                Redundancy_opt.evaluate ?cache config problem design levels
              in
              let miss = eval ~cache () in
              let hit = eval ~cache () in
              let fresh = eval () in
              result_opt_eq miss hit && result_opt_eq miss fresh
              && matches_oracle config miss)
            bus_policies)
        (slack_policies prng n))

(* Memo keys must not alias the caller's scratch arrays: after
   [evaluate] and [probe] return, scribbling over the levels and
   mapping arrays the caller built them from must leave every stored
   key and result intact. *)
let test_memo_keys_survive_caller_mutation () =
  let problem = Helpers.synthetic_problem ~seed:21 ~n:12 () in
  let m = Problem.n_library problem in
  let members = Array.init m Fun.id in
  let mapping =
    Ftes_core.Mapping_opt.initial_mapping problem ~members
  in
  let design =
    Design.make problem ~members ~levels:(Array.make m 1)
      ~reexecs:(Array.make m 0) ~mapping
  in
  let levels = Array.map (fun j -> Problem.levels problem j) members in
  let config = Config.default in
  let cache = Redundancy_opt.create_cache () in
  let evaluated = Redundancy_opt.evaluate ~cache config problem design levels in
  let probed = Redundancy_opt.probe ~cache ~config problem design in
  Alcotest.(check bool) "candidate evaluates" true (Option.is_some evaluated);
  let levels0 = Array.copy levels and mapping0 = Array.copy mapping in
  Array.fill levels 0 m 1;
  Array.iteri (fun p slot -> mapping.(p) <- (slot + 1) mod m) mapping;
  let r = Option.get evaluated in
  Alcotest.(check (array int)) "result levels intact" levels0
    r.Redundancy_opt.design.Design.levels;
  Alcotest.(check (array int)) "result mapping intact" mapping0
    r.Redundancy_opt.design.Design.mapping;
  let hits () = (Redundancy_opt.eval_stats ()).Redundancy_opt.hits in
  let before = hits () in
  let again = Redundancy_opt.evaluate ~cache config problem design levels0 in
  Alcotest.(check int) "original levels still hit" (before + 1) (hits ());
  Alcotest.(check bool) "original evaluation served" true
    (result_opt_eq again evaluated);
  let clobbered = Redundancy_opt.evaluate ~cache config problem design levels in
  Alcotest.(check bool) "scribbled levels are another key" true
    (result_opt_eq clobbered
       (Redundancy_opt.evaluate config problem design levels));
  let redesigned =
    Design.make problem ~members ~levels:(Array.make m 1)
      ~reexecs:(Array.make m 0) ~mapping:mapping0
  in
  let before = hits () in
  let reprobed = Redundancy_opt.probe ~cache ~config problem redesigned in
  Alcotest.(check int) "original mapping still hits" (before + 1) (hits ());
  Alcotest.(check bool) "original probe served" true
    (result_opt_eq (fst reprobed) (fst probed)
    && feq (snd reprobed) (snd probed))

let () =
  Alcotest.run "kernels"
    [ ( "scheduler",
        [ QCheck_alcotest.to_alcotest prop_heap_schedule_matches_reference;
          QCheck_alcotest.to_alcotest prop_schedule_length_matches_reference
        ] );
      ( "sfp",
        [ QCheck_alcotest.to_alcotest prop_exceed_vector_bit_identical;
          QCheck_alcotest.to_alcotest prop_system_failure_bit_identical;
          QCheck_alcotest.to_alcotest prop_candidate_failure_bit_identical ] );
      ( "re-execution",
        [ QCheck_alcotest.to_alcotest prop_for_mapping_matches_reference;
          Alcotest.test_case "saturation skips fire and preserve the vector"
            `Quick test_grow_skips_saturated_member ] );
      ( "bound",
        [ QCheck_alcotest.to_alcotest prop_required_k_matches_scan ] );
      ( "redundancy",
        [ Alcotest.test_case "unschedulable probe = best-effort length"
            `Quick test_unschedulable_probe_matches_best_effort_length;
          QCheck_alcotest.to_alcotest
            prop_memoized_evaluation_matches_from_scratch;
          Alcotest.test_case "memo keys survive caller mutation" `Quick
            test_memo_keys_survive_caller_mutation ] ) ]
