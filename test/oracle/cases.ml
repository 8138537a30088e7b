(* Inputs for the equivalence and differential suites and for the
   kernel benchmark's oracle comparison. *)

(* A random (all-members) design over the full library: random
   hardening levels, re-execution counts and mapping. *)
let random_design prng problem =
  let m = Ftes_model.Problem.n_library problem in
  let members = Array.init m Fun.id in
  let levels =
    Array.map
      (fun j -> 1 + Ftes_util.Prng.int prng (Ftes_model.Problem.levels problem j))
      members
  in
  let reexecs = Array.init m (fun _ -> Ftes_util.Prng.int prng 4) in
  let n = Ftes_model.Task_graph.n (Ftes_model.Problem.graph problem) in
  let mapping = Array.init n (fun _ -> Ftes_util.Prng.int prng m) in
  Ftes_model.Design.make problem ~members ~levels ~reexecs ~mapping

(* Policy sweeps shared by the equivalence / differential suites. *)
let named_bus_policies =
  [ ("fcfs", Ftes_sched.Bus.Fcfs);
    ("tdma", Ftes_sched.Bus.Tdma { slot_ms = 2.0 }) ]

let bus_policies = List.map snd named_bus_policies

let named_slack_policies =
  [ ("shared", Ftes_sched.Scheduler.Shared);
    ("conservative", Ftes_sched.Scheduler.Conservative);
    ("dedicated", Ftes_sched.Scheduler.Dedicated) ]

(* All five slack modes, the last two randomized per instance. *)
let slack_policies prng n =
  List.map snd named_slack_policies
  @ [ Ftes_sched.Scheduler.Per_process
        (Array.init n (fun _ -> Ftes_util.Prng.int prng 3));
      Ftes_sched.Scheduler.Checkpointed
        { kappa = Array.init n (fun _ -> 1 + Ftes_util.Prng.int prng 3);
          save_ms = 0.2 } ]
