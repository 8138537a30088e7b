(* Equivalence suite for the incremental evaluation kernels (the heap
   scheduler, the incremental SFP ascent and the bound-guided k-search):
   each must be bit-identical to its retained reference implementation,
   and the delta paths must demonstrably fire. *)

module Kernel = Ftes_util.Kernel
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
module Schedule = Ftes_sched.Schedule
module Bus = Ftes_sched.Bus
module Config = Ftes_core.Config
module Re_execution_opt = Ftes_core.Re_execution_opt
module Redundancy_opt = Ftes_core.Redundancy_opt
module Metrics = Ftes_obs.Metrics

let counter_value name = Metrics.counter_value (Metrics.counter name)

(* Bit-level float equality: the kernels promise the identical float,
   not a nearby one. *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

(* --- Scheduler: heap pick = reference rescan --- *)

let entry_eq (a : Schedule.entry) (b : Schedule.entry) =
  a.proc = b.proc && a.slot = b.slot && feq a.start b.start
  && feq a.finish b.finish && feq a.commit b.commit

let message_eq (a : Schedule.message) (b : Schedule.message) =
  a.edge = b.edge && feq a.bus_start b.bus_start
  && feq a.bus_finish b.bus_finish

let farray_eq a b =
  Array.length a = Array.length b && Array.for_all2 feq a b

let schedule_eq (a : Schedule.t) (b : Schedule.t) =
  Array.length a.entries = Array.length b.entries
  && Array.for_all2 entry_eq a.entries b.entries
  && List.length a.messages = List.length b.messages
  && List.for_all2 message_eq a.messages b.messages
  && farray_eq a.node_finish b.node_finish
  && farray_eq a.node_worst b.node_worst
  && feq a.length b.length

let random_design = Helpers.random_design

let bus_policies = Helpers.bus_policies

let slack_policies = Helpers.slack_policies

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
              let fast =
                Kernel.with_mode Kernel.Incremental (fun () ->
                    Scheduler.schedule ~slack ~bus problem design)
              in
              let reference =
                Scheduler.schedule_reference ~slack ~bus problem design
              in
              schedule_eq fast reference)
            bus_policies)
        (slack_policies prng n))

(* [schedule_length] takes a separate length-only path under the
   incremental kernel (no entry/message records are built), so it gets
   its own equivalence property: the duplicated placement code must
   keep producing the reference's makespan bit for bit. *)
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
              let fast =
                Kernel.with_mode Kernel.Incremental (fun () ->
                    Scheduler.schedule_length ~slack ~bus problem design)
              in
              let reference =
                Schedule.length
                  (Scheduler.schedule_reference ~slack ~bus problem design)
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

(* --- Re-execution ascent: incremental = reference --- *)

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
      let reference = Re_execution_opt.for_mapping_reference problem design in
      let fast =
        Kernel.with_mode Kernel.Incremental (fun () ->
            Re_execution_opt.for_mapping problem design)
      in
      let cached =
        Kernel.with_mode Kernel.Incremental (fun () ->
            Re_execution_opt.for_mapping
              ~cache:(Ftes_par.Sfp_cache.create ())
              problem design)
      in
      fast = reference && cached = reference)

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
          <> Bound.required_k_scan p ~budget ~kmax
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
  Kernel.with_mode Kernel.Incremental (fun () ->
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
        (Re_execution_opt.for_mapping_reference problem design)
        k)

(* An Optimize probe over a single fully-hardened unschedulable mapping
   memoizes its (None, best_len) outcome; a later escalation over the
   same mapping (through the memoized evaluations) must report the same
   best-effort length, under either kernel. *)
let test_unschedulable_probe_matches_best_effort_length () =
  (* 10 ms WCETs against a 5 ms deadline: never schedulable. *)
  let problem = two_node_problem ~deadline_ms:5.0 ~pfail:1e-6 in
  let design =
    Design.make problem ~members:[| 0; 1 |] ~levels:[| 1; 1 |]
      ~reexecs:[| 0; 0 |] ~mapping:[| 0; 1 |]
  in
  let config = Config.default in
  Kernel.with_mode Kernel.Incremental (fun () ->
      let cache = Redundancy_opt.create_cache () in
      let outcome, best_len =
        Redundancy_opt.probe ~cache ~config problem design
      in
      Alcotest.(check bool) "mapping is unschedulable" true (outcome = None);
      let len2 = Redundancy_opt.best_effort_length ~cache ~config problem design in
      Alcotest.(check bool) "memoized best-effort length served" true
        (feq len2 best_len);
      (* The reference kernel, given the same cache, must agree. *)
      let len_ref =
        Kernel.with_mode Kernel.Reference (fun () ->
            Redundancy_opt.best_effort_length ~cache ~config problem design)
      in
      Alcotest.(check bool) "reference agrees" true (feq len_ref best_len))

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
   hit and an unmemoized evaluation must agree bit for bit, and the
   margin and length must equal a from-scratch [Sfp.evaluate] and
   reference schedule of the returned design — in both kernel modes,
   across every slack x bus policy. *)
let prop_memoized_evaluation_matches_from_scratch =
  QCheck.Test.make ~count:20
    ~name:
      "memoized evaluate = unmemoized = from-scratch (all policies, both \
       kernels)"
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
      let check_against_scratch config (r : Redundancy_opt.result) =
        let verdict = Sfp.evaluate problem r.design in
        feq r.margin
          (Sfp.log10_margin problem.Problem.app
             ~per_iteration_failure:verdict.Sfp.per_iteration_failure)
        && feq r.schedule_length
             (Schedule.length
                (Scheduler.schedule_reference ~slack:config.Config.slack
                   ~bus:config.Config.bus problem r.design))
        && r.design.Design.levels = levels
      in
      let run_mode mode config =
        Kernel.with_mode mode (fun () ->
            let cache = Redundancy_opt.create_cache () in
            let eval ?cache () =
              Redundancy_opt.evaluate ?cache config problem design levels
            in
            let miss = eval ~cache () in
            let hit = eval ~cache () in
            let fresh = eval () in
            let ok =
              result_opt_eq miss hit && result_opt_eq miss fresh
              && match miss with
                 | None -> true
                 | Some r -> check_against_scratch config r
            in
            (ok, miss))
      in
      List.for_all
        (fun slack ->
          List.for_all
            (fun bus ->
              let config = Config.make ~slack ~bus () in
              let ok_inc, inc = run_mode Kernel.Incremental config in
              let ok_ref, reference = run_mode Kernel.Reference config in
              ok_inc && ok_ref && result_opt_eq inc reference)
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
    Ftes_core.Mapping_opt.initial_mapping ~config:Config.default problem
      ~members
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
