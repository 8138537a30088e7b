(* Self time and self allocation per span name, from completed span
   events, plus a Chrome trace-event export.

   A span's self time is its duration minus the durations of its direct
   children; every event names its direct parent, so self time folds
   event by event without keeping the events.  The benchmark wraps each
   op in a root span of its own ("bench/..."); that root's self time is
   the op time no program span covers, reported as "unattributed". *)

module Sink = Ftes_obs.Sink
module Json = Ftes_util.Json

type acc = {
  mutable count : int;
  mutable incl_ns : float;
  mutable self_ns : float;
  mutable incl_alloc_b : float;
  mutable self_alloc_b : float;
}

type t = {
  by_name : (string, acc) Hashtbl.t;
  child_ns : (string * string, float) Hashtbl.t;
      (* (parent, child) -> summed child duration *)
  mutable kept : Sink.event list;  (* newest first, for the export *)
  mutable n_kept : int;
  keep_max : int;
}

let create ?(keep_max = 100_000) () =
  { by_name = Hashtbl.create 32;
    child_ns = Hashtbl.create 32;
    kept = [];
    n_kept = 0;
    keep_max }

let acc t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a =
        { count = 0; incl_ns = 0.0; self_ns = 0.0; incl_alloc_b = 0.0; self_alloc_b = 0.0 }
      in
      Hashtbl.replace t.by_name name a;
      a

let add t (e : Sink.event) =
  let dur = float_of_int e.Sink.dur_ns in
  let a = acc t e.Sink.name in
  a.count <- a.count + 1;
  a.incl_ns <- a.incl_ns +. dur;
  a.self_ns <- a.self_ns +. dur;
  a.incl_alloc_b <- a.incl_alloc_b +. e.Sink.alloc_b;
  a.self_alloc_b <- a.self_alloc_b +. e.Sink.alloc_b;
  (match e.Sink.parent with
  | Some parent when e.Sink.depth > 0 ->
      let p = acc t parent in
      p.self_ns <- p.self_ns -. dur;
      p.self_alloc_b <- p.self_alloc_b -. e.Sink.alloc_b;
      let key = (parent, e.Sink.name) in
      Hashtbl.replace t.child_ns key
        (dur +. Option.value ~default:0.0 (Hashtbl.find_opt t.child_ns key))
  | _ -> ());
  if t.n_kept < t.keep_max then begin
    t.kept <- e :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let count t name =
  match Hashtbl.find_opt t.by_name name with Some a -> a.count | None -> 0

let incl_ns t name =
  match Hashtbl.find_opt t.by_name name with Some a -> a.incl_ns | None -> 0.0

let self_ns t name =
  match Hashtbl.find_opt t.by_name name with Some a -> a.self_ns | None -> 0.0

let incl_alloc_b t name =
  match Hashtbl.find_opt t.by_name name with Some a -> a.incl_alloc_b | None -> 0.0

(* Summed duration of [parent]'s direct children whose name satisfies
   [keep]. *)
let children_ns t parent keep =
  Hashtbl.fold
    (fun (p, c) ns acc -> if p = parent && keep c then acc +. ns else acc)
    t.child_ns 0.0

(* A self-time row for unattributed time that is known only as a
   total (the serve client's request windows). *)
let add_unattributed t ~ns ~alloc_b =
  let a = acc t "unattributed" in
  a.count <- a.count + 1;
  a.incl_ns <- a.incl_ns +. ns;
  a.self_ns <- a.self_ns +. ns;
  a.incl_alloc_b <- a.incl_alloc_b +. alloc_b;
  a.self_alloc_b <- a.self_alloc_b +. alloc_b

type row = { name : string; calls : int; incl_ms : float; self_ms : float; self_mb : float }

(* Rows by descending self time; names starting with "bench/" are the
   benchmark's own op roots and are reported as "unattributed". *)
let rows t =
  let merged = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let name =
        if String.length name > 6 && String.sub name 0 6 = "bench/" then
          "unattributed"
        else name
      in
      let r =
        Option.value
          ~default:{ name; calls = 0; incl_ms = 0.0; self_ms = 0.0; self_mb = 0.0 }
          (Hashtbl.find_opt merged name)
      in
      Hashtbl.replace merged name
        { r with
          calls = r.calls + a.count;
          incl_ms = r.incl_ms +. (a.incl_ns /. 1e6);
          self_ms = r.self_ms +. (a.self_ns /. 1e6);
          self_mb = r.self_mb +. (a.self_alloc_b /. 1e6) })
    t.by_name;
  Hashtbl.fold (fun _ r acc -> r :: acc) merged []
  |> List.sort (fun a b -> Float.compare b.self_ms a.self_ms)

let rows_to_text ~op_wall_ms rows =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "  %-22s %9s %12s %12s %11s %7s\n" "layer (span)" "calls"
    "incl ms" "self ms" "self MB" "share";
  List.iter
    (fun r ->
      Printf.bprintf buf "  %-22s %9d %12.2f %12.2f %11.2f %6.1f%%\n" r.name
        r.calls r.incl_ms r.self_ms r.self_mb
        (100.0 *. Stats.ratio r.self_ms op_wall_ms))
    rows;
  let total = Stats.sum (List.map (fun r -> r.self_ms) rows) in
  Printf.bprintf buf "  %-22s %9s %12s %12.2f %11s %6.1f%%  (op wall %.2f ms)\n"
    "sum" "" "" total "" (100.0 *. Stats.ratio total op_wall_ms) op_wall_ms;
  Buffer.contents buf

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome t path =
  let events = List.rev t.kept in
  let t0 =
    List.fold_left (fun m (e : Sink.event) -> min m e.Sink.start_ns) max_int events
  in
  let us ns = Json.Number (float_of_int ns /. 1000.0) in
  let ev (e : Sink.event) =
    Json.Object
      [ ("name", Json.String e.Sink.name);
        ("cat", Json.String "ftes");
        ("ph", Json.String "X");
        ("ts", us (e.Sink.start_ns - t0));
        ("dur", us e.Sink.dur_ns);
        ("pid", Json.Number 1.0);
        ("tid", Json.Number (float_of_int e.Sink.domain));
        ("args", Json.Object [ ("alloc_b", Json.Number e.Sink.alloc_b) ]) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string ~minify:true (ev e)))
        events;
      output_string oc "\n]}\n")
