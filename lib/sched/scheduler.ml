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

let priorities problem design =
  Ftes_obs.Metrics.incr c_priority_passes;
  let graph = Problem.graph problem in
  let exec proc = Design.wcet problem design ~proc in
  let comm (e : Task_graph.edge) =
    if design.Design.mapping.(e.src) = design.Design.mapping.(e.dst) then 0.0
    else e.transmission_ms
  in
  Task_graph.bottom_levels graph ~exec ~comm

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

let schedule_impl ~slack ~bus problem design =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  validate_slack ~slack n;
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let prio = priorities problem design in
  let mapping = design.Design.mapping in
  let k slot = design.Design.reexecs.(slot) in
  (* Per-node state. *)
  let node_avail = Array.make members 0.0 in
  let node_finish = Array.make members 0.0 in
  let max_exec = Array.make members 0.0 in
  (* Under checkpointing a fault re-executes only one segment, so the
     per-node slack is sized by the largest segment, not process. *)
  let max_recovery = Array.make members 0.0 in
  let last_commit = Array.make members 0.0 in
  let bus_state = Bus.create bus ~members in
  let entries = Array.make n None in
  let messages = ref [] in
  (* arrival.(p): earliest time all of p's inputs are on p's node. *)
  let arrival = Array.make n 0.0 in
  let remaining_preds = Array.init n (fun i -> Task_graph.in_degree graph i) in
  let scheduled = Array.make n false in
  let ready p = (not scheduled.(p)) && remaining_preds.(p) = 0 in
  let pick () =
    let best = ref (-1) in
    for p = n - 1 downto 0 do
      if ready p && (!best = -1 || prio.(p) >= prio.(!best)) then best := p
    done;
    !best
  in
  let place p =
    let slot = mapping.(p) in
    let raw_t = Design.wcet problem design ~proc:p in
    (* Checkpointing inflates the fault-free execution by the saves and
       shrinks the recovery unit to one segment. *)
    let t, recovery =
      match slack with
      | Checkpointed { kappa; save_ms } ->
          let segments = float_of_int kappa.(p) in
          ( raw_t +. ((segments -. 1.0) *. save_ms),
            raw_t /. segments )
      | Shared | Conservative | Dedicated | Per_process _ -> (raw_t, raw_t)
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
          finish +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
      | Dedicated -> finish +. (float_of_int (k slot) *. (t +. mu))
      | Per_process budgets ->
          finish +. (float_of_int budgets.(p) *. (t +. mu))
      | Checkpointed _ -> finish
    in
    entries.(p) <- Some { Schedule.proc = p; slot; start; finish; commit };
    node_finish.(slot) <- finish;
    last_commit.(slot) <- Float.max last_commit.(slot) commit;
    (node_avail.(slot) <-
       (match slack with
       | Shared | Conservative | Checkpointed _ -> finish
       | Dedicated | Per_process _ -> commit));
    (* Release successors; put cross-node outputs on the bus now
       (first-come-first-served). *)
    List.iter
      (fun (e : Task_graph.edge) ->
        let d = e.dst in
        let arrive =
          if mapping.(d) = slot then finish
          else begin
            let bus_start, bus_finish =
              Bus.transmit bus_state ~member:slot ~ready:commit
                ~duration:e.transmission_ms
            in
            messages := { Schedule.edge = e; bus_start; bus_finish } :: !messages;
            bus_finish
          end
        in
        if arrive > arrival.(d) then arrival.(d) <- arrive;
        remaining_preds.(d) <- remaining_preds.(d) - 1)
      (Task_graph.succs graph p);
    scheduled.(p) <- true
  in
  let rec run placed =
    if placed < n then begin
      let p = pick () in
      assert (p >= 0);
      place p;
      run (placed + 1)
    end
  in
  run 0;
  (* In Shared mode the re-executions of a node spill into one shared
     slack region after its nominal finish, sized by its largest
     process; in Dedicated mode each process already carries its own
     slack, so the node ends at the last commit. *)
  Ftes_obs.Metrics.incr c_slack_recomputations;
  let node_worst =
    Array.init members (fun slot ->
        match slack with
        | Shared | Conservative ->
            if max_exec.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
        | Checkpointed _ ->
            if max_recovery.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_recovery.(slot) +. mu))
        | Dedicated | Per_process _ -> last_commit.(slot))
  in
  let entries =
    Array.map
      (function
        | Some e -> e
        | None -> assert false (* every process was placed by [run] *))
      entries
  in
  let length = Array.fold_left Float.max 0.0 node_worst in
  { Schedule.entries; messages = List.rev !messages; node_finish; node_worst;
    length }

(* --- Incremental kernel ---

   Same placement algorithm and float operations as [schedule_impl];
   only the machinery around them changes:

   - the ready set lives in a binary heap ordered (priority desc, index
     asc) — exactly the (max priority, lowest index) argmax the
     reference [pick] scan computes, so identical pop sequences;
   - WCETs are fetched once into a scratch vector (the same
     [Design.wcet] calls the reference makes per placement), and the
     bottom-level pass reads them through the graph's CSR adjacency;
   - short-lived working arrays come from the domain's scratch arena.
     Arrays escaping into the returned {!Schedule.t} (entries,
     node_finish, node_worst) stay freshly allocated. *)

(* Heap order: highest priority first, ties to the lower index.  Both
   kernels share these top-level functions, so the length-only one
   allocates no closure for them; the comparator is written out at each
   use so the sift loops make no calls on their hottest comparisons. *)
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

(* Run [f] on an acquired arena, releasing it on every exit path; a
   [match ... with exception] handler, unlike [Fun.protect], allocates
   nothing. *)
let with_arena f ~slack ~bus problem design =
  let arena = Scratch.acquire () in
  match f arena ~slack ~bus problem design with
  | v ->
      Scratch.release arena;
      v
  | exception e ->
      Scratch.release arena;
      raise e

let dummy_entry =
  { Schedule.proc = -1; slot = -1; start = 0.0; finish = 0.0; commit = 0.0 }

let schedule_fast arena ~slack ~bus problem design =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  validate_slack ~slack n;
  let members = Design.n_members design in
  let mu = problem.Problem.app.Ftes_model.Application.recovery_overhead_ms in
  let mapping = design.Design.mapping in
  let k slot = design.Design.reexecs.(slot) in
  let wcet = Scratch.floats arena ~slot:0 ~n in
  Design.wcet_into problem design ~out:wcet;
  Ftes_obs.Metrics.incr c_priority_passes;
  let prio = Scratch.floats arena ~slot:8 ~n in
  Task_graph.bottom_levels_wcet_into graph ~wcet ~mapping ~out:prio;
  let node_avail = Scratch.floats arena ~slot:1 ~n:members in
  let max_exec = Scratch.floats arena ~slot:2 ~n:members in
  let max_recovery = Scratch.floats arena ~slot:3 ~n:members in
  let last_commit = Scratch.floats arena ~slot:4 ~n:members in
  let arrival = Scratch.floats arena ~slot:5 ~n in
  Array.fill node_avail 0 members 0.0;
  Array.fill max_exec 0 members 0.0;
  Array.fill max_recovery 0 members 0.0;
  Array.fill last_commit 0 members 0.0;
  Array.fill arrival 0 n 0.0;
  let node_finish = Array.make members 0.0 in
  let bus_state = Bus.create bus ~members in
  let entries = Array.make n dummy_entry in
  let messages = ref [] in
  let remaining_preds = Scratch.ints arena ~slot:0 ~n in
  Task_graph.in_degrees_into graph remaining_preds;
  let heap = Scratch.ints arena ~slot:1 ~n in
  let heap_len = ref 0 in
  let push p =
    heap_push heap prio !heap_len p;
    incr heap_len
  in
  for p = 0 to n - 1 do
    if remaining_preds.(p) = 0 then push p
  done;
  let place p =
    let slot = mapping.(p) in
    let raw_t = wcet.(p) in
    let t, recovery =
      match slack with
      | Checkpointed { kappa; save_ms } ->
          let segments = float_of_int kappa.(p) in
          ( raw_t +. ((segments -. 1.0) *. save_ms),
            raw_t /. segments )
      | Shared | Conservative | Dedicated | Per_process _ -> (raw_t, raw_t)
    in
    let start = Float.max node_avail.(slot) arrival.(p) in
    let finish = start +. t in
    if t > max_exec.(slot) then max_exec.(slot) <- t;
    if recovery > max_recovery.(slot) then max_recovery.(slot) <- recovery;
    let commit =
      match slack with
      | Shared -> finish
      | Conservative ->
          finish +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
      | Dedicated -> finish +. (float_of_int (k slot) *. (t +. mu))
      | Per_process budgets ->
          finish +. (float_of_int budgets.(p) *. (t +. mu))
      | Checkpointed _ -> finish
    in
    entries.(p) <- { Schedule.proc = p; slot; start; finish; commit };
    node_finish.(slot) <- finish;
    last_commit.(slot) <- Float.max last_commit.(slot) commit;
    (node_avail.(slot) <-
       (match slack with
       | Shared | Conservative | Checkpointed _ -> finish
       | Dedicated | Per_process _ -> commit));
    List.iter
      (fun (e : Task_graph.edge) ->
        let d = e.dst in
        let arrive =
          if mapping.(d) = slot then finish
          else begin
            let bus_start, bus_finish =
              Bus.transmit bus_state ~member:slot ~ready:commit
                ~duration:e.transmission_ms
            in
            messages := { Schedule.edge = e; bus_start; bus_finish } :: !messages;
            bus_finish
          end
        in
        if arrive > arrival.(d) then arrival.(d) <- arrive;
        remaining_preds.(d) <- remaining_preds.(d) - 1;
        if remaining_preds.(d) = 0 then push d)
      (Task_graph.succs graph p)
  in
  for _ = 1 to n do
    let p = heap_pop heap prio !heap_len in
    decr heap_len;
    place p
  done;
  Ftes_obs.Metrics.incr c_slack_recomputations;
  let node_worst =
    Array.init members (fun slot ->
        match slack with
        | Shared | Conservative ->
            if max_exec.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_exec.(slot) +. mu))
        | Checkpointed _ ->
            if max_recovery.(slot) = 0.0 then node_finish.(slot)
            else
              node_finish.(slot)
              +. (float_of_int (k slot) *. (max_recovery.(slot) +. mu))
        | Dedicated | Per_process _ -> last_commit.(slot))
  in
  let length = Array.fold_left Float.max 0.0 node_worst in
  { Schedule.entries; messages = List.rev !messages; node_finish; node_worst;
    length }

(* Length-only variant of [schedule_fast] for the optimizer's inner
   loop, which discards everything but [Schedule.length].  Same
   placement order and float operations (the placement floats do not
   depend on the entry/message records, and the final fold over
   [node_worst] runs in the same slot order starting from [0.0]), but
   no entry or message records are built, every array comes from the
   arena and the placement runs inline in the pop loop, so a call
   allocates no closure and, on an FCFS bus, no bus state. *)
let schedule_length_fast arena ~slack ~bus problem design =
  let graph = Problem.graph problem in
  let n = Task_graph.n graph in
  validate_slack ~slack n;
  let members = Design.n_members design in
  Bus.validate bus ~members;
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
  let max_recovery = Scratch.floats arena ~slot:3 ~n:members in
  let last_commit = Scratch.floats arena ~slot:4 ~n:members in
  let arrival = Scratch.floats arena ~slot:5 ~n in
  let node_finish = Scratch.floats arena ~slot:6 ~n:members in
  Array.fill node_avail 0 members 0.0;
  Array.fill max_exec 0 members 0.0;
  Array.fill max_recovery 0 members 0.0;
  Array.fill last_commit 0 members 0.0;
  Array.fill arrival 0 n 0.0;
  Array.fill node_finish 0 members 0.0;
  (* An FCFS bus is one float of state (its next free instant); it
     lives in an arena cell so the booking runs inline without boxing —
     same [max]/[+.] sequence as [Bus.transmit], whose validation is
     unreachable here (commit times are finite and non-negative by
     construction, transmission times are validated at graph build).
     Only TDMA builds a [Bus.t], for the shared slot walk. *)
  let tdma =
    match bus with
    | Bus.Fcfs -> None
    | Bus.Tdma _ -> Some (Bus.create bus ~members)
  in
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
  (* The successor-release walk runs over the graph's CSR adjacency —
     same edges in the same order as the reference's [List.iter] over
     [succs], on contiguous arrays. *)
  let succ_off = Task_graph.succ_offsets graph in
  let succ_dst = Task_graph.succ_dsts graph in
  let succ_tx = Task_graph.succ_txs graph in
  for _ = 1 to n do
    let p = heap_pop heap prio !heap_len in
    decr heap_len;
    let slot = mapping.(p) in
    let raw_t = wcet.(p) in
    (* Split the reference's (t, recovery) pair to avoid the tuple; the
       recomputed [segments] is the same float, so both components stay
       bit-identical. *)
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
          match tdma with
          | None ->
              let bus_start = Float.max bus_free.(0) commit in
              let bus_finish = bus_start +. succ_tx.(ei) in
              bus_free.(0) <- bus_finish;
              bus_finish
          | Some bus_state ->
              Bus.transmit_finish bus_state ~member:slot ~ready:commit
                ~duration:succ_tx.(ei)
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
    length := Float.max !length worst
  done;
  !length

let schedule ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      if Ftes_util.Kernel.incremental () then
        with_arena schedule_fast ~slack ~bus problem design
      else schedule_impl ~slack ~bus problem design)

let schedule_reference ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  Ftes_obs.Metrics.incr c_schedules;
  Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
      schedule_impl ~slack ~bus problem design)

let schedule_length ?(slack = Shared) ?(bus = Bus.Fcfs) problem design =
  if Ftes_util.Kernel.incremental () then begin
    Ftes_obs.Metrics.incr c_schedules;
    Ftes_obs.Span.with_ ~name:"sched/schedule" (fun () ->
        with_arena schedule_length_fast ~slack ~bus problem design)
  end
  else Schedule.length (schedule ~slack ~bus problem design)

let is_schedulable ?slack ?bus problem design =
  let sl = schedule_length ?slack ?bus problem design in
  Ftes_util.Tolerance.leq sl
    problem.Problem.app.Ftes_model.Application.deadline_ms
