(* Determinism harness for the parallel / memoized exploration stack:
   the Pool combinators must be observationally List.map, the SFP and
   candidate-evaluation caches must never change a result, and the
   parallel Design_strategy walk must be bit-identical to the
   sequential one under every slack and bus policy. *)

module Pool = Ftes_par.Pool
module Sfp_cache = Ftes_par.Sfp_cache
module Sfp = Ftes_sfp.Sfp
module Config = Ftes_core.Config
module Design_strategy = Ftes_core.Design_strategy
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Prng = Ftes_util.Prng
module Workload = Ftes_gen.Workload

let pool2 = Pool.create ~domains:2 ()

let pool3 = Pool.create ~domains:3 ()

(* --- Pool combinators --- *)

let prop_map_is_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map f = List.map f"
    QCheck.(pair (small_list int) (int_bound 2))
    (fun (xs, extra) ->
      let pool = Pool.create ~domains:(1 + extra) () in
      let f x = (x * x) - (3 * x) in
      Pool.map ~pool f xs = List.map f xs)

let prop_map_array =
  QCheck.Test.make ~count:50 ~name:"Pool.map_array f = Array.map f"
    QCheck.(array_of_size Gen.(int_bound 40) int)
    (fun xs ->
      let f x = x lxor 0x2a in
      Pool.map_array ~pool:pool3 f xs = Array.map f xs)

let prop_map_weighted =
  QCheck.Test.make ~count:50
    ~name:"Pool.map_weighted f = List.map f (weights only shape wall clock)"
    QCheck.(pair (small_list int) (int_bound 2))
    (fun (xs, extra) ->
      let pool = Pool.create ~domains:(1 + extra) () in
      let f x = (x * 7) - (x * x) in
      (* Adversarial weights: negative, tied and non-monotonic. *)
      let weight x = float_of_int ((x mod 5) - 2) in
      Pool.map_weighted ~pool ~weight f xs = List.map f xs)

let prop_map_reduce =
  QCheck.Test.make ~count:50
    ~name:"Pool.map_reduce folds mapped results in input order"
    QCheck.(small_list small_int)
    (fun xs ->
      (* Non-commutative combine: order-sensitive on purpose. *)
      let seq =
        List.fold_left (fun acc x -> (10 * acc) + (x mod 7)) 1 xs
      in
      let par =
        Pool.map_reduce ~pool:pool2 ~map:(fun x -> x mod 7)
          ~combine:(fun acc d -> (10 * acc) + d)
          ~init:1 xs
      in
      seq = par)

let test_map_exception () =
  let raises () =
    Pool.map ~pool:pool2
      (fun x -> if x = 17 then failwith "boom" else x)
      (List.init 64 Fun.id)
  in
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom") (fun () -> ignore (raises ()))

let test_map_seeded_domain_invariant () =
  let xs = List.init 32 Fun.id in
  let run pool =
    Pool.map_seeded ?pool ~prng:(Prng.create 99)
      (fun prng x -> (x, Prng.int prng 1_000_000, Prng.float prng 1.0))
      xs
  in
  let seq = run None in
  Alcotest.(check bool) "2 domains = sequential" true
    (run (Some pool2) = seq);
  Alcotest.(check bool) "3 domains = sequential" true
    (run (Some pool3) = seq)

let test_nested_map_flattens () =
  let outer =
    Pool.map ~pool:pool2
      (fun x ->
        Alcotest.(check bool) "inside worker" true (Pool.in_worker ());
        (* Nested map must degrade to the sequential path, not spawn. *)
        Pool.map ~pool:pool3 (fun y -> x + y) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check bool) "outside worker" false (Pool.in_worker ());
  Alcotest.(check (list (list int))) "nested results"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    outer

(* --- Sfp_cache --- *)

let test_sfp_cache_matches_fresh () =
  let problem = Helpers.synthetic_problem ~seed:7 ~n:14 () in
  let design = Helpers.design_on_all_nodes ~levels:1 ~k:2 problem in
  let cache = Sfp_cache.create () in
  for member = 0 to Design.n_members design - 1 do
    let kmax = Sfp.analysis_kmax design ~member in
    let cached = Sfp_cache.node_analysis cache problem design ~member ~kmax in
    let again = Sfp_cache.node_analysis cache problem design ~member ~kmax in
    let fresh =
      Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
    in
    Alcotest.(check (float Ftes_util.Tolerance.prob_eps))
      (Printf.sprintf "pr0 member %d" member)
      (Sfp.pr_zero fresh) (Sfp.pr_zero cached);
    for k = 0 to kmax do
      Alcotest.(check (float Ftes_util.Tolerance.prob_eps))
        (Printf.sprintf "pr_exceeds member %d k %d" member k)
        (Sfp.pr_exceeds fresh ~k) (Sfp.pr_exceeds cached ~k)
    done;
    Alcotest.(check bool) "second lookup is the same table" true
      (cached == again)
  done;
  Alcotest.(check int) "one miss per member"
    (Design.n_members design)
    (Sfp_cache.misses cache);
  Alcotest.(check int) "one hit per member"
    (Design.n_members design)
    (Sfp_cache.hits cache)

(* --- Design_strategy determinism --- *)

let slack_policies =
  [ ("shared", Scheduler.Shared);
    ("conservative", Scheduler.Conservative);
    ("dedicated", Scheduler.Dedicated) ]

let bus_policies =
  [ ("fcfs", Bus.Fcfs); ("tdma", Bus.Tdma { slot_ms = 2.0 }) ]

type fingerprint = {
  cost : float;
  schedule_length : float;
  members : int array;
  levels : int array;
  reexecs : int array;
  mapping : int array;
  explored : int;
}

let fingerprint = function
  | None -> None
  | Some (s : Design_strategy.solution) ->
      let r = s.Design_strategy.result in
      let d = r.Redundancy_opt.design in
      Some
        { cost = r.Redundancy_opt.cost;
          schedule_length = r.Redundancy_opt.schedule_length;
          members = d.Design.members;
          levels = d.Design.levels;
          reexecs = d.Design.reexecs;
          mapping = d.Design.mapping;
          explored = s.Design_strategy.explored }

let problem_of_seed seed =
  let spec =
    Workload.generate_spec ~seed ~index:0 ~n_processes:(8 + (seed mod 5)) ()
  in
  Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec

let prop_strategy_parallel_identical =
  QCheck.Test.make ~count:6
    ~name:
      "parallel memoized Design_strategy.run = sequential unmemoized (all \
       slack x bus policies)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = problem_of_seed seed in
      List.for_all
        (fun (_, slack) ->
          List.for_all
            (fun (_, bus) ->
              let config = Config.(default |> with_slack slack |> with_bus bus) in
              let seq =
                Design_strategy.run
                  ~config:(Config.with_memoize false config)
                  problem
              in
              let par =
                Design_strategy.run ~pool:pool2 ~config problem
              in
              fingerprint seq = fingerprint par)
            bus_policies)
        slack_policies)

(* The walk's counters do not depend on the pool: a 4-domain walk
   scores batches of 8 and pre-filters them, and the merge must count
   every candidate the pre-filter dropped as pruned, as the
   one-at-a-time walk does. *)
let pool4 = Pool.create ~domains:4 ()

let prop_strategy_counters_pool_invariant =
  QCheck.Test.make ~count:4
    ~name:
      "strategy.explored / strategy.pruned: sequential = 4 domains (all \
       slack x bus policies)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = problem_of_seed seed in
      let explored = Ftes_obs.Metrics.counter "strategy.explored" in
      let pruned = Ftes_obs.Metrics.counter "strategy.pruned" in
      let deltas run =
        let e0 = Ftes_obs.Metrics.counter_value explored in
        let p0 = Ftes_obs.Metrics.counter_value pruned in
        ignore (run ());
        ( Ftes_obs.Metrics.counter_value explored - e0,
          Ftes_obs.Metrics.counter_value pruned - p0 )
      in
      List.for_all
        (fun (_, slack) ->
          List.for_all
            (fun (_, bus) ->
              let config = Config.(default |> with_slack slack |> with_bus bus) in
              deltas (fun () -> Design_strategy.run ~config problem)
              = deltas (fun () ->
                    Design_strategy.run ~pool:pool4 ~config problem))
            bus_policies)
        slack_policies)

let prop_memoization_invisible =
  QCheck.Test.make ~count:10
    ~name:"Sfp_cache / eval cache on = off (sequential, exact)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let problem = problem_of_seed seed in
      let on = Design_strategy.run ~config:Config.default problem in
      let off =
        Design_strategy.run
          ~config:(Config.with_memoize false Config.default)
          problem
      in
      fingerprint on = fingerprint off)

let test_policy_sweep_shared_cache () =
  let problem = problem_of_seed 321 in
  let cache = Redundancy_opt.create_cache () in
  List.iter
    (fun policy ->
      let config = Config.with_hardening policy Config.default in
      let shared = Design_strategy.run ~cache ~config problem in
      let fresh =
        Design_strategy.run
          ~config:(Config.with_memoize false config)
          problem
      in
      Alcotest.(check bool)
        (Config.policy_name policy ^ " with shared cache")
        true
        (fingerprint shared = fingerprint fresh))
    [ Config.Fixed_min; Config.Fixed_max; Config.Optimize ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_par"
    [ ("pool",
       [ q prop_map_is_list_map;
         q prop_map_array;
         q prop_map_weighted;
         q prop_map_reduce;
         Alcotest.test_case "exception propagation" `Quick test_map_exception;
         Alcotest.test_case "map_seeded invariant across domain counts"
           `Quick test_map_seeded_domain_invariant;
         Alcotest.test_case "nested maps flatten" `Quick
           test_nested_map_flattens ]);
      ("sfp-cache",
       [ Alcotest.test_case "cached tables match fresh analysis" `Quick
           test_sfp_cache_matches_fresh ]);
      ("determinism",
       [ q prop_strategy_parallel_identical;
         q prop_strategy_counters_pool_invariant;
         q prop_memoization_invisible;
         Alcotest.test_case "policy sweep over one shared cache" `Quick
           test_policy_sweep_shared_cache ]) ]
