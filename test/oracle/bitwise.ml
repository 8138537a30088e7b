(* Bit-level equality of kernel outputs: the library kernels promise
   the oracle's float, not a nearby one. *)

module Schedule = Ftes_sched.Schedule

let float a b = Int64.bits_of_float a = Int64.bits_of_float b

let floats a b = Array.length a = Array.length b && Array.for_all2 float a b

let entry (a : Schedule.entry) (b : Schedule.entry) =
  a.proc = b.proc && a.slot = b.slot && float a.start b.start
  && float a.finish b.finish && float a.commit b.commit

let message (a : Schedule.message) (b : Schedule.message) =
  a.edge = b.edge && float a.bus_start b.bus_start
  && float a.bus_finish b.bus_finish

let schedule (a : Schedule.t) (b : Schedule.t) =
  Array.length a.entries = Array.length b.entries
  && Array.for_all2 entry a.entries b.entries
  && List.length a.messages = List.length b.messages
  && List.for_all2 message a.messages b.messages
  && floats a.node_finish b.node_finish
  && floats a.node_worst b.node_worst
  && float a.length b.length

let accepted (a : Ftes_core.Re_execution_opt.accepted option)
    (b : Ftes_core.Re_execution_opt.accepted option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.reexecs = b.reexecs
      && float a.per_iteration_failure b.per_iteration_failure
  | Some _, None | None, Some _ -> false
