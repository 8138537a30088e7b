module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Sfp = Ftes_sfp.Sfp

type key = { node : int; level : int; kmax : int; procs : int array }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.node = b.node && a.level = b.level && a.kmax = b.kmax
    && Ints.equal a.procs b.procs

  let hash k =
    Ints.hash (0x811c9dc5 + k.node + (31 * k.level) + (961 * k.kmax)) k.procs
end)

module Incremental = Ftes_sfp.Incremental

type entry = {
  analysis : Sfp.node_analysis;
  vectors : Incremental.node_vectors;
}

type t = {
  table : entry Key_tbl.t;
  mutex : Mutex.t;
  max_entries : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* Process-wide totals live on the Ftes_obs registry (PR 3 migrated
   them off ad-hoc atomics), so metrics snapshots and the `ftes
   profile` breakdown see them without extra plumbing; the per-instance
   counters below stay plain atomics, as tests inspect them per run. *)
let c_lookups = Ftes_obs.Metrics.counter "sfp_cache.lookups"

let c_hits = Ftes_obs.Metrics.counter "sfp_cache.hits"

let c_misses = Ftes_obs.Metrics.counter "sfp_cache.misses"

let c_capacity_drops = Ftes_obs.Metrics.counter "sfp_cache.capacity_drops"

let create ?(max_entries = 1 lsl 18) () =
  if max_entries < 1 then invalid_arg "Sfp_cache.create: empty capacity";
  { table = Key_tbl.create 1024;
    mutex = Mutex.create ();
    max_entries;
    hits = Atomic.make 0;
    misses = Atomic.make 0 }

(* Ascending processes on [member], built without the intermediate
   list [Design.procs_on] returns — key construction runs on every
   kernel evaluation.  Neighbor designs explored by one
   escalation/reduction sweep share the mapping array physically
   ([Design.with_levels] keeps it, and every design constructor copies
   its input array), so a mapping array's contents are frozen for its
   lifetime and its identity keys a one-slot per-domain cache of the
   full member partition, computed once per sweep instead of twice per
   lookup. *)
type partition = {
  mutable p_mapping : int array;
  mutable p_procs : int array array;
}

let partition_key =
  Domain.DLS.new_key (fun () -> { p_mapping = [||]; p_procs = [||] })

let procs_of design ~member =
  let mapping = design.Design.mapping in
  let cache = Domain.DLS.get partition_key in
  if cache.p_mapping != mapping || Array.length cache.p_procs <= member
  then begin
    (* The length guard also covers empty mappings: all zero-length
       int arrays share one atom, so identity alone could not tell two
       empty-process designs apart. *)
    let members = Array.length design.Design.members in
    let n = Array.length mapping in
    let fill = Array.make members 0 in
    for p = 0 to n - 1 do
      fill.(mapping.(p)) <- fill.(mapping.(p)) + 1
    done;
    let procs = Array.init members (fun m -> Array.make fill.(m) 0) in
    Array.fill fill 0 members 0;
    for p = 0 to n - 1 do
      let m = mapping.(p) in
      procs.(m).(fill.(m)) <- p;
      fill.(m) <- fill.(m) + 1
    done;
    cache.p_mapping <- mapping;
    cache.p_procs <- procs
  end;
  cache.p_procs.(member)

let node_entry t problem design ~member ~kmax =
  let key =
    { node = design.Design.members.(member);
      level = design.Design.levels.(member);
      kmax;
      procs = procs_of design ~member }
  in
  Ftes_obs.Metrics.incr c_lookups;
  (* [find_opt] cannot raise, so the hit path skips [Mutex.protect]'s
     closure. *)
  Mutex.lock t.mutex;
  let found = Key_tbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  match found with
  | Some entry ->
      Atomic.incr t.hits;
      Ftes_obs.Metrics.incr c_hits;
      entry
  | None ->
      Atomic.incr t.misses;
      Ftes_obs.Metrics.incr c_misses;
      (* Compute outside the lock: a concurrent duplicate computation
         of a pure function is cheaper than serializing the kernel. *)
      let analysis =
        Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
      in
      let entry = { analysis; vectors = Incremental.node_vectors analysis } in
      Mutex.protect t.mutex (fun () ->
          if Key_tbl.length t.table < t.max_entries then
            Key_tbl.replace t.table key entry
          else Ftes_obs.Metrics.incr c_capacity_drops);
      entry

let node_analysis t problem design ~member ~kmax =
  (node_entry t problem design ~member ~kmax).analysis

let node_vectors t problem design ~member ~kmax =
  (node_entry t problem design ~member ~kmax).vectors

let migrate ?(same_keys = false) ~keep t =
  let kept = ref 0 and dropped = ref 0 in
  let fresh =
    if same_keys then begin
      (* Keys survive verbatim, so a bucket-preserving copy plus an
         in-place filter skips rehashing every (node, level, kmax,
         procs) key — migration is the floor of a warm what-if rerun,
         and the rehash dominated it. *)
      let table = Mutex.protect t.mutex (fun () -> Key_tbl.copy t.table) in
      Key_tbl.filter_map_inplace
        (fun key entry ->
          if Option.is_some (keep key) then begin
            incr kept;
            Some entry
          end
          else begin
            incr dropped;
            None
          end)
        table;
      { table;
        mutex = Mutex.create ();
        max_entries = t.max_entries;
        hits = Atomic.make 0;
        misses = Atomic.make 0 }
    end
    else begin
      let fresh = create ~max_entries:t.max_entries () in
      Mutex.protect t.mutex (fun () ->
          Key_tbl.iter
            (fun key entry ->
              match keep key with
              | Some key' ->
                  incr kept;
                  Key_tbl.replace fresh.table key' entry
              | None -> incr dropped)
            t.table);
      fresh
    end
  in
  (fresh, (!kept, !dropped))

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let length t = Mutex.protect t.mutex (fun () -> Key_tbl.length t.table)

let entries t =
  Mutex.protect t.mutex (fun () ->
      Key_tbl.fold
        (fun key entry acc -> (key, entry.analysis) :: acc)
        t.table [])

type totals = { total_hits : int; total_misses : int }

let totals () =
  { total_hits = Ftes_obs.Metrics.counter_value c_hits;
    total_misses = Ftes_obs.Metrics.counter_value c_misses }

let reset_totals () =
  Ftes_obs.Metrics.reset_counter c_lookups;
  Ftes_obs.Metrics.reset_counter c_hits;
  Ftes_obs.Metrics.reset_counter c_misses;
  Ftes_obs.Metrics.reset_counter c_capacity_drops

let hit_rate { total_hits; total_misses } =
  let lookups = total_hits + total_misses in
  if lookups = 0 then 0.0
  else float_of_int total_hits /. float_of_int lookups
