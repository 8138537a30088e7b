type t = {
  members : int array;
  levels : int array;
  reexecs : int array;
  mapping : int array;
}

let check problem t =
  let lib = Problem.n_library problem in
  let n = Problem.n_processes problem in
  let m = Array.length t.members in
  if m = 0 then Error "empty architecture"
  else if Array.length t.levels <> m then Error "levels length mismatch"
  else if Array.length t.reexecs <> m then Error "reexecs length mismatch"
  else if Array.length t.mapping <> n then Error "mapping length mismatch"
  else begin
    let seen = Array.make lib false in
    let rec check_members i =
      if i = m then Ok ()
      else begin
        let j = t.members.(i) in
        if j < 0 || j >= lib then Error "member index out of library range"
        else if seen.(j) then Error "node selected twice"
        else begin
          seen.(j) <- true;
          let level = t.levels.(i) in
          if level < 1 || level > Problem.levels problem j then
            Error "hardening level out of range"
          else if t.reexecs.(i) < 0 then Error "negative re-execution count"
          else check_members (i + 1)
        end
      end
    in
    match check_members 0 with
    | Error _ as e -> e
    | Ok () ->
        let rec check_mapping i =
          if i = n then Ok ()
          else if t.mapping.(i) < 0 || t.mapping.(i) >= m then
            Error "mapping target out of architecture range"
          else check_mapping (i + 1)
        in
        check_mapping 0
  end

let validate = check

let make problem ~members ~levels ~reexecs ~mapping =
  let t =
    { members = Array.copy members;
      levels = Array.copy levels;
      reexecs = Array.copy reexecs;
      mapping = Array.copy mapping }
  in
  match check problem t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Design.make: " ^ msg)

let n_members t = Array.length t.members

let with_levels t levels = { t with levels = Array.copy levels }
let with_reexecs t reexecs = { t with reexecs = Array.copy reexecs }
let with_mapping t mapping = { t with mapping = Array.copy mapping }

let cost problem t =
  let total = ref 0.0 in
  Array.iteri
    (fun slot j ->
      total := !total +. Problem.cost problem ~node:j ~level:t.levels.(slot))
    t.members;
  !total

let wcet problem t ~proc =
  let slot = t.mapping.(proc) in
  Problem.wcet problem ~node:t.members.(slot) ~level:t.levels.(slot) ~proc

(* Bulk variant of [wcet] for the scheduler's per-call fill: the
   h-version tables are resolved once per slot instead of once per
   process, and each written float is the same array cell [wcet]
   reads, so the fill is bit-identical to [n] scalar calls. *)
let wcet_into problem t ~out =
  let members = Array.length t.members in
  let tables = Array.make members [||] in
  for slot = 0 to members - 1 do
    tables.(slot) <-
      (Platform.version
         (Problem.node problem t.members.(slot))
         ~level:t.levels.(slot))
        .Platform.wcet_ms
  done;
  let mapping = t.mapping in
  for p = 0 to Array.length mapping - 1 do
    out.(p) <- tables.(mapping.(p)).(p)
  done

let pfail problem t ~proc =
  let slot = t.mapping.(proc) in
  Problem.pfail problem ~node:t.members.(slot) ~level:t.levels.(slot) ~proc

let procs_on t ~member =
  let acc = ref [] in
  for p = Array.length t.mapping - 1 downto 0 do
    if t.mapping.(p) = member then acc := p :: !acc
  done;
  !acc

let pfail_vector problem t ~member =
  procs_on t ~member
  |> List.map (fun proc -> pfail problem t ~proc)
  |> Array.of_list

let pp ppf problem t =
  Format.fprintf ppf "@[<v>architecture (cost %g):@," (cost problem t);
  Array.iteri
    (fun slot j ->
      let nt = Problem.node problem j in
      Format.fprintf ppf "  %s h=%d k=%d procs=[%s]@," nt.Platform.node_name
        t.levels.(slot) t.reexecs.(slot)
        (String.concat "; "
           (List.map string_of_int (procs_on t ~member:slot))))
    t.members;
  Format.fprintf ppf "@]"
