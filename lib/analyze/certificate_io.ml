open Certificate
open Ftes_util.Codec

let schema_version = 1

let summary : summary t =
  obj
    (let+ name = field "name" string (fun s -> s.name)
     and+ n_processes = field "n_processes" int (fun s -> s.n_processes)
     and+ n_library = field "n_library" int (fun s -> s.n_library)
     and+ deadline_ms = field "deadline_ms" float (fun s -> s.deadline_ms)
     and+ period_ms = field "period_ms" float (fun s -> s.period_ms)
     and+ gamma = field "gamma" float (fun s -> s.gamma)
     and+ mu_ms = field "mu_ms" float (fun s -> s.mu_ms) in
     { name; n_processes; n_library; deadline_ms; period_ms; gamma; mu_ms })

let witness : Preflight.witness t =
  let proc_and name =
    let+ proc = field "proc" int fst and+ v = field name float snd in
    (proc, v)
  in
  union ~what:"witness" ~tag:"kind"
    [ case "task-wcet"
        (function
          | Preflight.Task_wcet { proc; min_wcet_ms } ->
              Some (proc, min_wcet_ms)
          | _ -> None)
        (let+ proc, min_wcet_ms = proc_and "min_wcet_ms" in
         Preflight.Task_wcet { proc; min_wcet_ms });
      case "task-slack"
        (function
          | Preflight.Task_slack { proc; min_length_ms } ->
              Some (proc, min_length_ms)
          | _ -> None)
        (let+ proc, min_length_ms = proc_and "min_length_ms" in
         Preflight.Task_slack { proc; min_length_ms });
      case "task-unreliable"
        (function Preflight.Task_unreliable { proc } -> Some proc | _ -> None)
        (let+ proc = field "proc" int Fun.id in
         Preflight.Task_unreliable { proc });
      case "critical-path"
        (function
          | Preflight.Critical_path { length_ms; path } ->
              Some (length_ms, path)
          | _ -> None)
        (let+ length_ms = field "length_ms" float fst
         and+ path = field "path" (list int) snd in
         Preflight.Critical_path { length_ms; path });
      case "total-work"
        (function
          | Preflight.Total_work { work_ms; capacity_ms } ->
              Some (work_ms, capacity_ms)
          | _ -> None)
        (let+ work_ms = field "work_ms" float fst
         and+ capacity_ms = field "capacity_ms" float snd in
         Preflight.Total_work { work_ms; capacity_ms }) ]

(* One object per task; the record keeps the same data column-wise. *)
let task =
  obj
    (let+ wcet = field "min_wcet_ms" float (fun (w, _, _, _) -> w)
     and+ length = field "min_length_ms" float_or_null (fun (_, l, _, _) -> l)
     and+ cheapest = field "cheapest_cost" float_or_null (fun (_, _, c, _) -> c)
     and+ kneed = field "kneed" (array (array int)) (fun (_, _, _, k) -> k) in
     (wcet, length, cheapest, kneed))

let tasks c =
  Array.init (Array.length c.min_wcets) (fun p ->
      ( c.min_wcets.(p),
        c.task_min_length.(p),
        c.task_cheapest.(p),
        c.kneed.(p) ))

let codec : Certificate.t t =
  versioned ~what:"certificate" ~current:schema_version ~accept_v0:false
    (obj
       (let* summary = field "problem" summary (fun c -> c.summary)
        and+ kmax, reexec, threshold, budget =
          group "premises"
            (let+ kmax = field "kmax" int (fun c -> c.kmax)
             and+ reexec = field "reexec" bool (fun c -> c.reexec)
             and+ threshold = field "threshold" float (fun c -> c.threshold)
             and+ budget = field "budget" float (fun c -> c.budget) in
             (kmax, reexec, threshold, budget))
        and+ (critical_path_ms, critical_path, total_work_ms, capacity_ms),
             (cost_lower_bound, sfp_cost_lower_bound) =
          group "bounds"
            (let+ critical_path_ms =
               field "critical_path_ms" float (fun c -> c.critical_path_ms)
             and+ critical_path =
               field "critical_path" (list int) (fun c -> c.critical_path)
             and+ total_work_ms =
               field "total_work_ms" float (fun c -> c.total_work_ms)
             and+ capacity_ms = field "capacity_ms" float (fun c ->
                 c.capacity_ms)
             and+ cost_lower_bound =
               field "cost_lower_bound" float_or_null (fun c ->
                   c.cost_lower_bound)
             and+ sfp_cost_lower_bound =
               field "sfp_cost_lower_bound" float_or_null (fun c ->
                   c.sfp_cost_lower_bound)
             in
             ( (critical_path_ms, critical_path, total_work_ms, capacity_ms),
               (cost_lower_bound, sfp_cost_lower_bound) ))
        and+ tasks = field "tasks" (array task) tasks
        and+ feasible = field "feasible" bool (fun c -> c.feasible)
        and+ witnesses = field "witnesses" (list witness) (fun c -> c.witnesses)
        in
        if Array.length tasks <> summary.n_processes then
          Error
            (Printf.sprintf "tasks: %d entries for %d processes"
               (Array.length tasks) summary.n_processes)
        else
          Ok
            { summary;
              kmax;
              reexec;
              threshold;
              budget;
              min_wcets = Array.map (fun (w, _, _, _) -> w) tasks;
              kneed = Array.map (fun (_, _, _, k) -> k) tasks;
              task_min_length = Array.map (fun (_, l, _, _) -> l) tasks;
              task_cheapest = Array.map (fun (_, _, c, _) -> c) tasks;
              critical_path_ms;
              critical_path;
              total_work_ms;
              capacity_ms;
              cost_lower_bound;
              sfp_cost_lower_bound;
              feasible;
              witnesses }))

let to_json = encode codec
let save path c = save codec path c
let load ?on_warning path = load ?on_warning codec path
