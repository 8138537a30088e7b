type policy = Fcfs | Tdma of { slot_ms : float }

type t = {
  policy : policy;
  members : int;
  mutable free : float; (* FCFS: bus free time *)
  member_free : float array; (* TDMA: per-node next usable instant *)
}

let validate policy ~members =
  if members <= 0 then invalid_arg "Bus.create: member count must be positive";
  match policy with
  | Tdma { slot_ms } when not (Float.is_finite slot_ms) || slot_ms <= 0.0 ->
      invalid_arg "Bus.create: TDMA slot must be positive"
  | Tdma _ | Fcfs -> ()

let create policy ~members =
  validate policy ~members;
  { policy; members; free = 0.0; member_free = Array.make members 0.0 }

let policy t = t.policy

let round_length_ms t =
  match t.policy with
  | Fcfs -> None
  | Tdma { slot_ms } -> Some (slot_ms *. float_of_int t.members)

(* First instant >= [time] lying inside one of [member]'s slots. *)
let next_own_instant ~slot_ms ~members ~member time =
  let round = slot_ms *. float_of_int members in
  let own_offset = slot_ms *. float_of_int member in
  let base = Float.floor (time /. round) *. round in
  let in_round = time -. base in
  if in_round < own_offset then base +. own_offset
  else if in_round < own_offset +. slot_ms then time
  else base +. round +. own_offset

let transmit t ~member ~ready ~duration =
  if member < 0 || member >= t.members then
    invalid_arg "Bus.transmit: member out of range";
  if ready < 0.0 || not (Float.is_finite ready) then
    invalid_arg "Bus.transmit: invalid ready time";
  if duration < 0.0 || not (Float.is_finite duration) then
    invalid_arg "Bus.transmit: invalid duration";
  match t.policy with
  | Fcfs ->
      let start = Float.max t.free ready in
      let finish = start +. duration in
      t.free <- finish;
      (start, finish)
  | Tdma { slot_ms } ->
      let begin_at = Float.max ready t.member_free.(member) in
      if duration = 0.0 then begin
        let start =
          next_own_instant ~slot_ms ~members:t.members ~member begin_at
        in
        t.member_free.(member) <- start;
        (start, start)
      end
      else begin
        (* Walk the node's slots, consuming fragments until the whole
           message has been transmitted. *)
        let rec walk at remaining start =
          let at = next_own_instant ~slot_ms ~members:t.members ~member at in
          let start = match start with Some s -> s | None -> at in
          let round = slot_ms *. float_of_int t.members in
          let own_offset = slot_ms *. float_of_int member in
          let slot_end =
            (Float.floor (at /. round) *. round) +. own_offset +. slot_ms
          in
          let available = slot_end -. at in
          if remaining <= available +. 1e-12 then begin
            let finish = at +. remaining in
            (Some start, finish)
          end
          else walk slot_end (remaining -. available) (Some start)
        in
        match walk begin_at duration None with
        | Some start, finish ->
            t.member_free.(member) <- finish;
            (start, finish)
        | None, _ -> assert false (* walk always sets the start *)
      end
