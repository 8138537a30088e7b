module Task_graph = Ftes_model.Task_graph
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design

type slack_mode =
  | Shared
  | Conservative
  | Dedicated
  | Per_process of int array
  | Checkpointed of { kappa : int array; save_ms : float }

let c_schedules = Ftes_obs.Metrics.counter "sched.schedules"

let c_priority_passes = Ftes_obs.Metrics.counter "sched.priority_passes"

let c_slack_recomputations = Ftes_obs.Metrics.counter "sched.slack_recomputations"

let validate_slack ~slack n =
  match slack with
  | Per_process budgets ->
      if Array.length budgets <> n then
        invalid_arg "Scheduler.schedule: per-process budget length mismatch";
      Array.iter
        (fun b ->
          if b < 0 then
            invalid_arg "Scheduler.schedule: negative per-process budget")
        budgets
  | Checkpointed { kappa; save_ms } ->
      if Array.length kappa <> n then
        invalid_arg "Scheduler.schedule: checkpoint vector length mismatch";
      Array.iter
        (fun c ->
          if c < 1 then
            invalid_arg "Scheduler.schedule: checkpoint counts must be >= 1")
        kappa;
      if save_ms < 0.0 || not (Float.is_finite save_ms) then
        invalid_arg "Scheduler.schedule: invalid checkpoint overhead"
  | Shared | Conservative | Dedicated -> ()

(* Heap order: highest priority first, ties to the lower index — the
   (max priority, lowest index) argmax of a rescan of the ready set.
   The comparator is written out at each use so the sift loops make no
   calls on their hottest comparisons. *)
let heap_push (heap : int array) (prio : float array) len p =
  heap.(len) <- p;
  let i = ref len in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let a = heap.(!i) and b = heap.(parent) in
    if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then begin
      heap.(parent) <- a;
      heap.(!i) <- b;
      i := parent
    end
    else continue := false
  done

(* Pops the top of a heap of [len] elements; the caller shrinks [len]. *)
let heap_pop (heap : int array) (prio : float array) len =
  let top = heap.(0) in
  let len = len - 1 in
  heap.(0) <- heap.(len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = ref !i in
    if l < len then begin
      let a = heap.(l) and b = heap.(!best) in
      if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then best := l
    end;
    if r < len then begin
      let a = heap.(r) and b = heap.(!best) in
      if prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) then best := r
    end;
    if !best = !i then continue := false
    else begin
      let tmp = heap.(!best) in
      heap.(!best) <- heap.(!i);
      heap.(!i) <- tmp;
      i := !best
    end
  done;
  top

(* What a full schedule collects besides its length: the entry and
   message records.  A message shares the graph's edge record, found
   by CSR slot in [Task_graph.succ_edges]. *)
type recorder = {
  entries : Schedule.entry array;
  mutable messages : Schedule.message list;
}

(* How the loop books a cross-node message.  A full schedule records
   every message with its start, so it books through [Bus.transmit]
   ([Record]).  A length-only call on TDMA needs the slot walk of
   [Bus.transmit] too ([Walk]).  On FCFS it books [Inline]: that bus is
   one float of state (its next free instant), kept in an arena cell
   and updated with the same [max]/[+.] sequence as [Bus.transmit],
   whose validation is unreachable here (commit times are finite and
   non-negative by construction, transmission times are validated at
   graph build), so no [Bus.t] is built. *)
type booking = Inline | Walk of Bus.t | Record of Bus.t * recorder

(* The arena slots [run] leaves its per-member results in. *)
let node_finish_slot = 6

let node_worst_slot = 9

(* The list scheduler.  Processes are placed in decreasing bottom-level
   priority from a binary heap over the ready set; placing one releases
   its successors over the graph's CSR adjacency and books its
   cross-node outputs on the bus (first-come-first-served).  Inputs are
   validated by the caller.  Every working array comes from [arena], and
   the fault-free and worst-case completion per member are left in the
   [node_finish_slot] and [node_worst_slot] arrays.  Returns the
   worst-case schedule length.  Unless [booking] records, a call
   allocates no record and no closure. *)
let run arena booking ~slack problem design =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let mapping = design.Design.mapping in
  let reexecs = design.Design.reexecs in
  let wcet = Scratch.floats arena ~slot:0 ~n in
  Design.wcet_into problem design ~out:wcet;
  Ftes_obs.Metrics.incr c_priority_passes;
  let prio = Scratch.floats arena ~slot:8 ~n in
  Task_graph.bottom_levels_wcet_into graph ~wcet ~mapping ~out:prio;
  let node_avail = Scratch.floats arena ~slot:1 ~n:members in
  let max_exec = Scratch.floats arena ~slot:2 ~n:members in
  (* Under checkpointing a fault re-executes only one segment, so the
     per-node slack is sized by the largest segment, not process. *)
  let max_recovery = Scratch.floats arena ~slot:3 ~n:members in
  let last_commit = Scratch.floats arena ~slot:4 ~n:members in
  (* arrival.(p): earliest time all of p's inputs are on p's node. *)
  let arrival = Scratch.floats arena ~slot:5 ~n in
  let node_finish = Scratch.floats arena ~slot:node_finish_slot ~n:members in
  let node_worst = Scratch.floats arena ~slot:node_worst_slot ~n:members in
  Array.fill node_avail 0 members 0.0;
  Array.fill max_exec 0 members 0.0;
  Array.fill max_recovery 0 members 0.0;
  Array.fill last_commit 0 members 0.0;
  Array.fill arrival 0 n 0.0;
  Array.fill node_finish 0 members 0.0;
  let bus_free = Scratch.floats arena ~slot:7 ~n:1 in
  bus_free.(0) <- 0.0;
  let remaining_preds = Scratch.ints arena ~slot:0 ~n in
  Task_graph.in_degrees_into graph remaining_preds;
  let heap = Scratch.ints arena ~slot:1 ~n in
  let heap_len = ref 0 in
  for p = 0 to n - 1 do
    if remaining_preds.(p) = 0 then begin
      heap_push heap prio !heap_len p;
      incr heap_len
    end
  done;
  let succ_off = Task_graph.succ_offsets graph in
  let succ_dst = Task_graph.succ_dsts graph in
  let succ_tx = Task_graph.succ_txs graph in
  let succ_edge = Task_graph.succ_edges graph in
  for _ = 1 to n do
    let p = heap_pop heap prio !heap_len in
    decr heap_len;
    let slot = mapping.(p) in
    let raw_t = wcet.(p) in
    (* Checkpointing inflates the fault-free execution by the saves and
       shrinks the recovery unit to one segment. *)
    let t =
      match slack with
      | Checkpointed { kappa; save_ms } ->
          raw_t +. ((float_of_int kappa.(p) -. 1.0) *. save_ms)
      | Shared | Conservative | Dedicated | Per_process _ -> raw_t
    in
    let recovery =
      match slack with
      | Checkpointed { kappa; _ } -> raw_t /. float_of_int kappa.(p)
      | Shared | Conservative | Dedicated | Per_process _ -> raw_t
    in
    let start = Float.max node_avail.(slot) arrival.(p) in
    let finish = start +. t in
    if t > max_exec.(slot) then max_exec.(slot) <- t;
    if recovery > max_recovery.(slot) then max_recovery.(slot) <- recovery;
    (* The commit time is when the process's outputs may leave the node:
       nominally right away under the paper's model, after the shared
       worst-case slack under the sound variant, after the process's own
       slack without sharing. *)
    let commit =
      match slack with
      | Shared -> finish
      | Conservative ->
          finish
          +. (float_of_int reexecs.(slot) *. (max_exec.(slot) +. mu))
      | Dedicated -> finish +. (float_of_int reexecs.(slot) *. (t +. mu))
      | Per_process budgets ->
          finish +. (float_of_int budgets.(p) *. (t +. mu))
      | Checkpointed _ -> finish
    in
    (match booking with
    | Record (_, r) ->
        r.entries.(p) <- { Schedule.proc = p; slot; start; finish; commit }
    | Inline | Walk _ -> ());
    node_finish.(slot) <- finish;
    last_commit.(slot) <- Float.max last_commit.(slot) commit;
    (node_avail.(slot) <-
       (match slack with
       | Shared | Conservative | Checkpointed _ -> finish
       | Dedicated | Per_process _ -> commit));
    for ei = succ_off.(p) to succ_off.(p + 1) - 1 do
      let d = succ_dst.(ei) in
      let arrive =
        if mapping.(d) = slot then finish
        else begin
          match booking with
          | Inline ->
              let bus_start = Float.max bus_free.(0) commit in
              let bus_finish = bus_start +. succ_tx.(ei) in
              bus_free.(0) <- bus_finish;
              bus_finish
          | Walk bus_state ->
              snd
                (Bus.transmit bus_state ~member:slot ~ready:commit
                   ~duration:succ_tx.(ei))
          | Record (bus_state, r) ->
              let bus_start, bus_finish =
                Bus.transmit bus_state ~member:slot ~ready:commit
                  ~duration:succ_tx.(ei)
              in
              r.messages <-
                { Schedule.edge = succ_edge.(ei); bus_start; bus_finish }
                :: r.messages;
              bus_finish
        end
      in
      if arrive > arrival.(d) then arrival.(d) <- arrive;
      remaining_preds.(d) <- remaining_preds.(d) - 1;
      if remaining_preds.(d) = 0 then begin
        heap_push heap prio !heap_len d;
        incr heap_len
      end
    done
  done;
  (* In Shared mode the re-executions of a node spill into one shared
     slack region after its nominal finish, sized by its largest
     process; in Dedicated mode each process already carries its own
     slack, so the node ends at the last commit. *)
  Ftes_obs.Metrics.incr c_slack_recomputations;
  let length = ref 0.0 in
  for slot = 0 to members - 1 do
    let k = float_of_int reexecs.(slot) in
    let worst =
      match slack with
      | Shared | Conservative ->
          if max_exec.(slot) = 0.0 then node_finish.(slot)
          else node_finish.(slot) +. (k *. (max_exec.(slot) +. mu))
      | Checkpointed _ ->
          if max_recovery.(slot) = 0.0 then node_finish.(slot)
          else node_finish.(slot) +. (k *. (max_recovery.(slot) +. mu))
      | Dedicated | Per_process _ -> last_commit.(slot)
    in
    node_worst.(slot) <- worst;
    length := Float.max !length worst
  done;
  !length

let dummy_entry =
  { Schedule.proc = -1; slot = -1; start = 0.0; finish = 0.0; commit = 0.0 }

(* Both entry points release the arena on every exit path; a
   [match ... with exception] handler, unlike [Fun.protect], allocates
   nothing. *)
let schedule ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      let graph = Problem.graph problem in
      let n = Task_graph.n graph in
      let members = Design.n_members design in
      validate_slack ~slack n;
      let recorder = { entries = Array.make n dummy_entry; messages = [] } in
      let booking = Record (Bus.create bus ~members, recorder) in
      let arena = Scratch.acquire () in
      match run arena booking ~slack problem design with
      | length ->
          let copy slot =
            Array.sub (Scratch.floats arena ~slot ~n:members) 0 members
          in
          let node_finish = copy node_finish_slot in
          let node_worst = copy node_worst_slot in
          Scratch.release arena;
          { Schedule.entries = recorder.entries;
            messages = List.rev recorder.messages;
            node_finish;
            node_worst;
            length }
      | exception e ->
          Scratch.release arena;
          raise e)

let schedule_length ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      validate_slack ~slack (Task_graph.n (Problem.graph problem));
      let members = Design.n_members design in
      let booking =
        match bus with
        | Bus.Fcfs ->
            Bus.validate bus ~members;
            Inline
        | Bus.Tdma _ -> Walk (Bus.create bus ~members)
      in
      let arena = Scratch.acquire () in
      match run arena booking ~slack problem design with
      | length ->
          Scratch.release arena;
          length
      | exception e ->
          Scratch.release arena;
          raise e)

let is_schedulable ?slack ?bus problem design =
  let sl = schedule_length ?slack ?bus problem design in
  Ftes_util.Tolerance.leq sl
    problem.Problem.app.Ftes_model.Application.deadline_ms
