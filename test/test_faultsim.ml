(* Tests for the fault model, the Monte-Carlo injector and the
   discrete-event executor, including the agreement between the SFP
   analysis and simulation. *)

module Fault_model = Ftes_faultsim.Fault_model
module Injector = Ftes_faultsim.Injector
module Executor = Ftes_faultsim.Executor
module Prng = Ftes_util.Prng
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler

let check_float = Alcotest.(check (float 1e-12))
let check_close eps = Alcotest.(check (float eps))

(* --- Fault_model --- *)

let test_model_construction () =
  let m = Fault_model.make ~ser_per_cycle:1e-10 ~masking:0.5 () in
  check_float "clock default" Fault_model.default_clock_hz m.Fault_model.clock_hz;
  check_close 1e-15 "effective rate halved" (1e-10 *. 1e8 /. 1000.0 /. 2.0)
    (Fault_model.effective_rate_per_ms m)

let test_model_validation () =
  let invalid msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  invalid "Fault_model.make: negative SER" (fun () ->
      Fault_model.make ~ser_per_cycle:(-1.0) ~masking:0.0 ());
  invalid "Fault_model.make: clock must be positive" (fun () ->
      Fault_model.make ~clock_hz:0.0 ~ser_per_cycle:1e-10 ~masking:0.0 ());
  invalid "Fault_model.make: masking must lie in [0, 1]" (fun () ->
      Fault_model.make ~ser_per_cycle:1e-10 ~masking:1.5 ());
  invalid "Fault_model.of_hardening: level out of range" (fun () ->
      Fault_model.of_hardening ~ser_per_cycle:1e-10 ~level:0 ());
  invalid "Fault_model.of_hardening: reduction factor must be >= 1" (fun () ->
      Fault_model.of_hardening ~reduction_factor:0.5 ~ser_per_cycle:1e-10
        ~level:2 ())

let test_of_hardening_masking () =
  let m1 = Fault_model.of_hardening ~ser_per_cycle:1e-10 ~level:1 () in
  check_float "level 1 unmasked" 0.0 m1.Fault_model.masking;
  let m3 = Fault_model.of_hardening ~ser_per_cycle:1e-10 ~level:3 () in
  check_close 1e-12 "level 3 masks 99.99%" (1.0 -. 1e-4) m3.Fault_model.masking

let test_failure_probability_linear_regime () =
  let m = Fault_model.make ~clock_hz:1e9 ~ser_per_cycle:1e-11 ~masking:0.0 () in
  (* rate = 1e-11 * 1e6 per ms = 1e-5/ms; for 10 ms, p ~ 1e-4 (minus the
     second-order Poisson term ~ 5e-9). *)
  check_close 1e-8 "p ~ rate * t" 1e-4
    (Fault_model.failure_probability m ~duration_ms:10.0)

let test_failure_probability_saturates () =
  let m = Fault_model.make ~clock_hz:1e9 ~ser_per_cycle:1e-2 ~masking:0.0 () in
  let p = Fault_model.failure_probability m ~duration_ms:100.0 in
  Alcotest.(check bool) "saturates below 1" true (p > 0.999999 && p <= 1.0)

let test_failure_probability_zero_duration () =
  let m = Fault_model.make ~ser_per_cycle:1e-10 ~masking:0.0 () in
  check_float "zero exposure" 0.0 (Fault_model.failure_probability m ~duration_ms:0.0)

(* --- Injector --- *)

let test_injector_estimate_matches_closed_form () =
  (* Rate boosted into the observable regime. *)
  let m = Fault_model.make ~clock_hz:1e9 ~ser_per_cycle:2e-9 ~masking:0.3 () in
  let p_exact = Fault_model.failure_probability m ~duration_ms:20.0 in
  let prng = Prng.create 99 in
  let e = Injector.estimate_pfail prng m ~duration_ms:20.0 ~trials:30_000 in
  Alcotest.(check bool)
    (Printf.sprintf "closed form %.4f within CI [%.4f, %.4f]" p_exact
       e.Injector.ci_low e.Injector.ci_high)
    true
    (p_exact >= e.Injector.ci_low && p_exact <= e.Injector.ci_high)

let test_injector_zero_rate () =
  let m = Fault_model.make ~ser_per_cycle:0.0 ~masking:0.0 () in
  let prng = Prng.create 1 in
  let e = Injector.estimate_pfail prng m ~duration_ms:50.0 ~trials:100 in
  Alcotest.(check int) "never fails" 0 e.Injector.failures

let test_injector_full_masking () =
  let m = Fault_model.make ~clock_hz:1e9 ~ser_per_cycle:1e-3 ~masking:1.0 () in
  let prng = Prng.create 2 in
  let e = Injector.estimate_pfail prng m ~duration_ms:5.0 ~trials:500 in
  Alcotest.(check int) "all strikes masked" 0 e.Injector.failures

let test_injector_validation () =
  let m = Fault_model.make ~ser_per_cycle:1e-10 ~masking:0.0 () in
  Alcotest.check_raises "trials must be positive"
    (Invalid_argument "Injector.estimate_pfail: trials must be > 0") (fun () ->
      ignore (Injector.estimate_pfail (Prng.create 1) m ~duration_ms:1.0 ~trials:0))

let test_importance_boost () =
  let m = Fault_model.make ~clock_hz:1e9 ~ser_per_cycle:1e-12 ~masking:0.0 () in
  let boosted, factor = Injector.importance_boost m ~target_p:1e-2 in
  Alcotest.(check bool) "factor > 1 for rare events" true (factor > 1.0);
  check_close 1e-9 "boosted rate hits the target for 1 ms" 1e-2
    (Fault_model.effective_rate_per_ms boosted)

(* --- Executor --- *)

let fig4a_setup () =
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let schedule = Scheduler.schedule problem design in
  (problem, design, schedule)

let test_executor_no_faults_nominal () =
  (* With boost 1 the fig1 probabilities (~1e-5) essentially never fire
     in one run with a fixed seed; the makespan equals the nominal
     completion. *)
  let problem, design, schedule = fig4a_setup () in
  let prng = Prng.create 3 in
  let o = Executor.run_iteration prng problem design schedule in
  Alcotest.(check bool) "no failure" true (o.Executor.failed_node = None);
  Alcotest.(check int) "no faults injected" 0 o.Executor.faults_injected;
  let nominal =
    Array.fold_left Float.max 0.0 schedule.Ftes_sched.Schedule.node_finish
  in
  check_close 1e-9 "nominal makespan" nominal o.Executor.makespan

let test_executor_budget_exceeded () =
  (* Drive probabilities to ~1 with boost; with k = 0 the first fault
     kills the iteration. *)
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design =
    Design.with_reexecs (Ftes_cc.Fig_examples.fig4a problem) [| 0; 0 |]
  in
  let schedule = Scheduler.schedule problem design in
  let prng = Prng.create 4 in
  let o = Executor.run_iteration ~boost:70_000.0 prng problem design schedule in
  Alcotest.(check bool) "a node exceeded its budget" true
    (o.Executor.failed_node <> None)

let test_executor_reexecution_extends_makespan () =
  let problem, design, schedule = fig4a_setup () in
  (* Find a seed that injects at least one recovered fault. *)
  let rec find seed =
    if seed > 500 then Alcotest.fail "no seed with a recovered fault"
    else begin
      let prng = Prng.create seed in
      let o = Executor.run_iteration ~boost:20_000.0 prng problem design schedule in
      if o.Executor.failed_node = None && o.Executor.faults_injected > 0 then o
      else find (seed + 1)
    end
  in
  let o = find 0 in
  let nominal =
    Array.fold_left Float.max 0.0 schedule.Ftes_sched.Schedule.node_finish
  in
  Alcotest.(check bool) "recovered run is longer than nominal" true
    (o.Executor.makespan > nominal);
  Alcotest.(check bool) "and within the conservative bound" true
    (o.Executor.makespan
     <= Scheduler.schedule_length ~slack:Scheduler.Conservative problem design
        +. 1e-9)

let test_executor_deterministic () =
  let problem, design, schedule = fig4a_setup () in
  let run seed =
    Executor.run_iteration ~boost:10_000.0 (Prng.create seed) problem design
      schedule
  in
  let a = run 42 and b = run 42 in
  Alcotest.(check bool) "same seed, same outcome" true (a = b)

let test_executor_boost_validation () =
  let problem, design, schedule = fig4a_setup () in
  Alcotest.check_raises "boost below 1"
    (Invalid_argument "Executor: boost must be >= 1") (fun () ->
      ignore
        (Executor.run_iteration ~boost:0.5 (Prng.create 1) problem design
           schedule))

let test_campaign_matches_sfp () =
  let problem, design, _ = fig4a_setup () in
  let prng = Prng.create 5 in
  let c = Executor.run_campaign ~boost:20_000.0 prng problem design ~trials:30_000 in
  (* With boost 2e4, p ~ 0.24/0.26 per process; k=1 per node -> failure
     rate around 0.26; MC must agree with formula (5) within a few
     percent. *)
  Alcotest.(check bool)
    (Printf.sprintf "observed %.4f vs predicted %.4f"
       c.Executor.observed_failure_rate c.Executor.predicted_failure_rate)
    true
    (Float.abs (c.Executor.observed_failure_rate -. c.Executor.predicted_failure_rate)
     <= 0.02)

let test_campaign_conservative_bound () =
  (* Every within-budget scenario completes within the conservative
     worst-case schedule length (the sound bound). *)
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let prng = Prng.create 6 in
  let c =
    Executor.run_campaign ~boost:50_000.0 ~slack:Scheduler.Conservative prng
      problem design ~trials:5_000
  in
  let bound =
    Scheduler.schedule_length ~slack:Scheduler.Conservative problem design
  in
  Alcotest.(check bool)
    (Printf.sprintf "max makespan %.1f within bound %.1f" c.Executor.max_makespan
       bound)
    true
    (c.Executor.max_makespan <= bound +. 1e-9)

let test_campaign_validation () =
  let problem, design, _ = fig4a_setup () in
  Alcotest.check_raises "trials positive"
    (Invalid_argument "Executor.run_campaign: trials must be > 0") (fun () ->
      ignore (Executor.run_campaign (Prng.create 1) problem design ~trials:0))

(* --- Deterministic scenarios and the exact worst case --- *)

module Scenarios = Ftes_faultsim.Scenarios

let test_scenario_nominal () =
  let problem, design, schedule = fig4a_setup () in
  let o =
    Executor.run_scenario problem design schedule ~faults:(Array.make 4 0)
  in
  let nominal =
    Array.fold_left Float.max 0.0 schedule.Ftes_sched.Schedule.node_finish
  in
  check_close 1e-9 "no faults = nominal" nominal o.Executor.makespan;
  Alcotest.(check int) "no faults injected" 0 o.Executor.faults_injected

let test_scenario_known_cascade () =
  (* P2 fails once on N1, P4 fails once on N2: the Fig. 4a cascade
     computed by hand ends at 445 ms. *)
  let problem, design, schedule = fig4a_setup () in
  let o =
    Executor.run_scenario problem design schedule ~faults:[| 0; 1; 0; 1 |]
  in
  Alcotest.(check bool) "within budget" true (o.Executor.failed_node = None);
  check_close 1e-9 "cascade makespan" 445.0 o.Executor.makespan

let test_scenario_budget_exceeded () =
  let problem, design, schedule = fig4a_setup () in
  (* Two faults on P2 exceed N1's budget of one. *)
  let o =
    Executor.run_scenario problem design schedule ~faults:[| 0; 2; 0; 0 |]
  in
  Alcotest.(check bool) "node failure" true (o.Executor.failed_node = Some 0)

let test_scenario_validation () =
  let problem, design, schedule = fig4a_setup () in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Executor.run_scenario: fault vector length mismatch")
    (fun () ->
      ignore (Executor.run_scenario problem design schedule ~faults:[| 0 |]));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Executor.run_scenario: negative fault count") (fun () ->
      ignore
        (Executor.run_scenario problem design schedule
           ~faults:[| 0; -1; 0; 0 |]))

let test_scenarios_count () =
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  (* Per node: f=0 (1 way) + f=1 over two processes (2 ways) = 3. *)
  Alcotest.(check (float 1e-9)) "3 x 3 scenarios" 9.0
    (Scenarios.count_scenarios design)

let test_worst_case_fig4a () =
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let r = Scenarios.worst_case problem design in
  Alcotest.(check int) "all scenarios replayed" 9 r.Scenarios.scenarios;
  check_close 1e-9 "exact worst case" 445.0 r.Scenarios.exact_worst_ms;
  check_close 1e-9 "the paper's bound" 340.0 r.Scenarios.shared_bound_ms;
  Alcotest.(check bool) "certifies the shared bound's optimism" true
    (Scenarios.optimism_certificate r);
  Alcotest.(check bool) "within the sound bound" true
    (r.Scenarios.exact_worst_ms <= r.Scenarios.conservative_bound_ms +. 1e-9)

let test_worst_case_no_reexecution () =
  (* With k = 0 there is a single scenario and every bound is tight. *)
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4e problem in
  let r = Scenarios.worst_case problem design in
  Alcotest.(check int) "one scenario" 1 r.Scenarios.scenarios;
  check_close 1e-9 "exact = shared = 330" 330.0 r.Scenarios.exact_worst_ms;
  Alcotest.(check bool) "no optimism" false (Scenarios.optimism_certificate r)

let test_scenario_nominal_tdma () =
  (* A fault-free replay over a TDMA bus lands exactly on the TDMA
     schedule's nominal completion. *)
  let problem = Ftes_cc.Fig_examples.fig1_problem () in
  let design = Ftes_cc.Fig_examples.fig4a problem in
  let tdma = Ftes_sched.Bus.Tdma { slot_ms = 10.0 } in
  let schedule = Scheduler.schedule ~bus:tdma problem design in
  let o =
    Executor.run_scenario ~bus:tdma problem design schedule
      ~faults:(Array.make 4 0)
  in
  let nominal =
    Array.fold_left Float.max 0.0 schedule.Ftes_sched.Schedule.node_finish
  in
  check_close 1e-9 "TDMA nominal replay" nominal o.Executor.makespan

(* A fault-free replay with no re-execution budget reproduces the
   static schedule: the bus books every message in the schedule's
   transmission order.  Booking them in producer start order instead
   let msg 2->4 (ready at 37.79 ms) take the bus before msg 3->5
   (ready at 35.36 ms) on this instance, and the replay ended at
   54.03 ms instead of 51.66 ms. *)
let test_fault_free_replay_order () =
  let problem = Helpers.synthetic_problem ~seed:70 ~n:6 () in
  let design =
    Design.make problem ~members:[| 0; 1 |] ~levels:[| 1; 1 |]
      ~reexecs:[| 0; 0 |] ~mapping:[| 0; 0; 0; 1; 1; 0 |]
  in
  let schedule = Scheduler.schedule problem design in
  let o =
    Executor.run_scenario problem design schedule ~faults:(Array.make 6 0)
  in
  check_close 1e-9 "replay = schedule length"
    (Scheduler.schedule_length problem design)
    o.Executor.makespan;
  let r = Scenarios.worst_case problem design in
  Alcotest.(check bool) "within the sound bound" true
    (r.Scenarios.exact_worst_ms <= r.Scenarios.conservative_bound_ms +. 1e-9)

let prop_fault_free_replay =
  QCheck.Test.make ~count:60
    ~name:"fault-free replay makespan = schedule length (k = 0)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let problem =
        Helpers.synthetic_problem ~seed ~n:(4 + Prng.int prng 12) ()
      in
      let d = Helpers.random_design prng problem in
      let design =
        Design.with_reexecs d (Array.make (Design.n_members d) 0)
      in
      let faults = Array.make (Ftes_model.Problem.n_processes problem) 0 in
      List.for_all
        (fun bus ->
          List.for_all
            (fun slack ->
              let schedule = Scheduler.schedule ~slack ~bus problem design in
              let o =
                Executor.run_scenario ~bus problem design schedule ~faults
              in
              Float.equal o.Executor.makespan
                (Scheduler.schedule_length ~slack ~bus problem design))
            (List.map snd Helpers.named_slack_policies))
        Helpers.bus_policies)

let test_worst_case_limit () =
  let problem = Helpers.synthetic_problem ~n:20 () in
  let design = Helpers.design_on_all_nodes ~k:5 problem in
  Alcotest.(check bool) "guard trips" true
    (try
       ignore (Scenarios.worst_case ~limit:100 problem design);
       false
     with Invalid_argument _ -> true)

let prop_exact_within_conservative =
  QCheck.Test.make ~count:25
    ~name:"exact worst case never exceeds the conservative bound"
    QCheck.(int_bound 5_000)
    (fun seed ->
      let problem = Helpers.synthetic_problem ~seed:(seed / 7) ~n:6 () in
      let prng = Prng.create seed in
      let m = 1 + Prng.int prng 2 in
      let members = Array.init m Fun.id in
      let mapping =
        Array.init (Ftes_model.Problem.n_processes problem) (fun _ ->
            Prng.int prng m)
      in
      let design =
        Design.make problem ~members ~levels:(Array.make m 1)
          ~reexecs:(Array.init m (fun _ -> Prng.int prng 3))
          ~mapping
      in
      let r = Scenarios.worst_case ~limit:500_000 problem design in
      r.Scenarios.exact_worst_ms <= r.Scenarios.conservative_bound_ms +. 1e-9)

(* Envelope property: however faults fall, a surviving run never exceeds
   nominal + all slack + all bus traffic. *)
let prop_makespan_envelope =
  QCheck.Test.make ~count:60 ~name:"surviving makespan within global envelope"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let problem = Ftes_cc.Fig_examples.fig1_problem () in
      let design = Ftes_cc.Fig_examples.fig4a problem in
      let schedule = Scheduler.schedule problem design in
      let o =
        Executor.run_iteration ~boost:30_000.0 (Prng.create seed) problem design
          schedule
      in
      match o.Executor.failed_node with
      | Some _ -> true
      | None ->
          let mu =
            problem.Ftes_model.Problem.app
              .Ftes_model.Application.recovery_overhead_ms
          in
          let nominal =
            Array.fold_left Float.max 0.0 schedule.Ftes_sched.Schedule.node_finish
          in
          let slack_budget =
            Array.to_list design.Design.reexecs
            |> List.mapi (fun slot k ->
                   let max_t =
                     Array.fold_left
                       (fun acc e ->
                         if e.Ftes_sched.Schedule.slot = slot then
                           Float.max acc
                             (e.Ftes_sched.Schedule.finish
                             -. e.Ftes_sched.Schedule.start)
                         else acc)
                       0.0 schedule.Ftes_sched.Schedule.entries
                   in
                   float_of_int k *. (max_t +. mu))
            |> List.fold_left ( +. ) 0.0
          in
          let bus =
            List.fold_left
              (fun acc m ->
                acc
                +. m.Ftes_sched.Schedule.edge.Ftes_model.Task_graph.transmission_ms)
              0.0 schedule.Ftes_sched.Schedule.messages
          in
          o.Executor.makespan <= nominal +. slack_budget +. bus +. 1e-9)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_faultsim"
    [ ( "fault_model",
        [ Alcotest.test_case "construction" `Quick test_model_construction;
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "hardening masking" `Quick test_of_hardening_masking;
          Alcotest.test_case "linear regime" `Quick
            test_failure_probability_linear_regime;
          Alcotest.test_case "saturation" `Quick test_failure_probability_saturates;
          Alcotest.test_case "zero duration" `Quick
            test_failure_probability_zero_duration ] );
      ( "injector",
        [ Alcotest.test_case "estimate within CI" `Quick
            test_injector_estimate_matches_closed_form;
          Alcotest.test_case "zero rate" `Quick test_injector_zero_rate;
          Alcotest.test_case "full masking" `Quick test_injector_full_masking;
          Alcotest.test_case "validation" `Quick test_injector_validation;
          Alcotest.test_case "importance boost" `Quick test_importance_boost ] );
      ( "executor",
        [ Alcotest.test_case "fault-free nominal run" `Quick
            test_executor_no_faults_nominal;
          Alcotest.test_case "budget exceeded" `Quick test_executor_budget_exceeded;
          Alcotest.test_case "re-execution extends makespan" `Quick
            test_executor_reexecution_extends_makespan;
          Alcotest.test_case "deterministic" `Quick test_executor_deterministic;
          Alcotest.test_case "boost validation" `Quick test_executor_boost_validation ] );
      ( "scenarios",
        [ Alcotest.test_case "nominal replay" `Quick test_scenario_nominal;
          Alcotest.test_case "known cascade = 445 ms" `Quick
            test_scenario_known_cascade;
          Alcotest.test_case "budget exceeded" `Quick test_scenario_budget_exceeded;
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "scenario count" `Quick test_scenarios_count;
          Alcotest.test_case "fig4a exact worst case" `Quick test_worst_case_fig4a;
          Alcotest.test_case "k=0 tight" `Quick test_worst_case_no_reexecution;
          Alcotest.test_case "TDMA nominal replay" `Quick
            test_scenario_nominal_tdma;
          Alcotest.test_case "limit guard" `Quick test_worst_case_limit;
          Alcotest.test_case "fault-free replay keeps the bus order" `Quick
            test_fault_free_replay_order;
          q prop_fault_free_replay;
          q prop_exact_within_conservative ] );
      ( "campaign",
        [ Alcotest.test_case "matches SFP" `Slow test_campaign_matches_sfp;
          Alcotest.test_case "conservative bound holds" `Quick
            test_campaign_conservative_bound;
          Alcotest.test_case "validation" `Quick test_campaign_validation;
          q prop_makespan_envelope ] ) ]
