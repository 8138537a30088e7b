module Prng = Ftes_util.Prng
module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Schedule = Ftes_sched.Schedule
module Scheduler = Ftes_sched.Scheduler
module Sfp = Ftes_sfp.Sfp

type outcome = {
  makespan : float;
  failed_node : int option;
  faults_injected : int;
}

let boosted_pfail ?(boost = 1.0) problem design ~proc =
  if boost < 1.0 then invalid_arg "Executor: boost must be >= 1";
  let p = Design.pfail problem design ~proc *. boost in
  if p >= 1.0 then
    invalid_arg "Executor: boosted probability reaches 1; lower the boost";
  p

(* Core timeline simulation.  [decide ~proc] is called once per
   execution attempt and returns whether that attempt fails; the random
   campaign draws Bernoulli variables, the deterministic scenario runner
   counts down a prescribed fault vector. *)
let simulate ~bus ~decide problem design (schedule : Schedule.t) =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let budget = Array.copy design.Design.reexecs in
  let node_avail = Array.make members 0.0 in
  let actual_finish = Array.make n 0.0 in
  let faults = ref 0 in
  let failed_node = ref None in
  let makespan = ref 0.0 in
  (* Static per-node execution order = ascending start times. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      compare
        (schedule.Schedule.entries.(a).Schedule.start, a)
        (schedule.Schedule.entries.(b).Schedule.start, b))
    order;
  (* The bus keeps the static schedule's arbitration: messages are
     booked in its transmission order ([Schedule.messages]), each at the
     later of its producer's actual (fault-delayed) finish and the bus
     state, exactly as in a conditional schedule's contingency branches.
     A message is booked when a consumer first needs it, together with
     every message queued ahead of it on the same bus resource (the
     whole bus under FCFS, the sender's own slots under TDMA).  Those
     were booked no later than it in the static schedule, so their
     producers start earlier and have already run. *)
  let bus_state = Ftes_sched.Bus.create bus ~members in
  let queue_of slot =
    match bus with Ftes_sched.Bus.Fcfs -> 0 | Ftes_sched.Bus.Tdma _ -> slot
  in
  let queues = Array.make members [] in
  List.iter
    (fun (m : Schedule.message) ->
      let q = queue_of design.Design.mapping.(m.Schedule.edge.Task_graph.src) in
      queues.(q) <- m :: queues.(q))
    (List.rev schedule.Schedule.messages);
  let message_actual_finish = Hashtbl.create 16 in
  let rec book_until (e : Task_graph.edge) =
    match Hashtbl.find_opt message_actual_finish (e.src, e.dst) with
    | Some finish -> finish
    | None -> (
        let q = queue_of design.Design.mapping.(e.src) in
        match queues.(q) with
        | [] -> invalid_arg "Executor: message missing from the schedule"
        | (m : Schedule.message) :: rest ->
            queues.(q) <- rest;
            let src = m.Schedule.edge.Task_graph.src in
            let _, finish =
              Ftes_sched.Bus.transmit bus_state
                ~member:design.Design.mapping.(src) ~ready:actual_finish.(src)
                ~duration:m.Schedule.edge.Task_graph.transmission_ms
            in
            Hashtbl.replace message_actual_finish
              (src, m.Schedule.edge.Task_graph.dst)
              finish;
            book_until e)
  in
  let message_arrival proc =
    List.fold_left
      (fun acc (e : Task_graph.edge) ->
        let src_slot = design.Design.mapping.(e.src) in
        let dst_slot = design.Design.mapping.(proc) in
        if src_slot = dst_slot then Float.max acc actual_finish.(e.src)
        else Float.max acc (book_until e))
      0.0 (Task_graph.preds graph proc)
  in
  let exception Exhausted of int in
  (try
     Array.iter
       (fun proc ->
         let entry = schedule.Schedule.entries.(proc) in
         let slot = entry.Schedule.slot in
         let t = Design.wcet problem design ~proc in
         let start =
           Float.max entry.Schedule.start
             (Float.max node_avail.(slot) (message_arrival proc))
         in
         (* Execute; on failure re-execute after [mu] while the node's
            budget lasts. *)
         let rec attempt finish =
           if decide ~proc then begin
             incr faults;
             if budget.(slot) = 0 then begin
               makespan := Float.max !makespan finish;
               raise (Exhausted slot)
             end
             else begin
               budget.(slot) <- budget.(slot) - 1;
               attempt (finish +. mu +. t)
             end
           end
           else finish
         in
         let finish = attempt (start +. t) in
         actual_finish.(proc) <- finish;
         node_avail.(slot) <- finish;
         makespan := Float.max !makespan finish)
       order
   with Exhausted slot -> failed_node := Some slot);
  { makespan = !makespan; failed_node = !failed_node;
    faults_injected = !faults }

let run_iteration ?boost ?(bus = Ftes_sched.Bus.Fcfs) prng problem design
    schedule =
  let decide ~proc =
    Prng.chance prng (boosted_pfail ?boost problem design ~proc)
  in
  simulate ~bus ~decide problem design schedule

let run_scenario ?(bus = Ftes_sched.Bus.Fcfs) problem design schedule ~faults =
  let n = Problem.n_processes problem in
  if Array.length faults <> n then
    invalid_arg "Executor.run_scenario: fault vector length mismatch";
  Array.iter
    (fun f ->
      if f < 0 then invalid_arg "Executor.run_scenario: negative fault count")
    faults;
  let remaining = Array.copy faults in
  let decide ~proc =
    if remaining.(proc) > 0 then begin
      remaining.(proc) <- remaining.(proc) - 1;
      true
    end
    else false
  in
  simulate ~bus ~decide problem design schedule

type campaign = {
  trials : int;
  system_failures : int;
  deadline_misses : int;
  observed_failure_rate : float;
  predicted_failure_rate : float;
  max_makespan : float;
}

let run_campaign ?(boost = 1.0) ?slack ?bus prng problem design ~trials =
  if trials <= 0 then invalid_arg "Executor.run_campaign: trials must be > 0";
  let schedule = Scheduler.schedule ?slack ?bus problem design in
  let deadline = problem.Problem.app.Ftes_model.Application.deadline_ms in
  let failures = ref 0 in
  let misses = ref 0 in
  let max_makespan = ref 0.0 in
  for _ = 1 to trials do
    let o = run_iteration ~boost ?bus prng problem design schedule in
    (match o.failed_node with
    | Some _ -> incr failures
    | None ->
        if o.makespan > deadline +. 1e-9 then incr misses;
        if o.makespan > !max_makespan then max_makespan := o.makespan)
  done;
  let predicted_failure_rate =
    let analyses =
      Array.init (Design.n_members design) (fun member ->
          let probs =
            Design.pfail_vector problem design ~member
            |> Array.map (fun p -> p *. boost)
          in
          Sfp.node_analysis
            ~kmax:(max Sfp.default_kmax design.Design.reexecs.(member))
            probs)
    in
    Sfp.system_failure_per_iteration analyses ~k:design.Design.reexecs
  in
  { trials;
    system_failures = !failures;
    deadline_misses = !misses;
    observed_failure_rate = float_of_int !failures /. float_of_int trials;
    predicted_failure_rate;
    max_makespan = !max_makespan }
