module Codec = Ftes_util.Codec
module Config = Ftes_core.Config
module Workload = Ftes_gen.Workload
module Synthetic = Ftes_exp.Synthetic
module Frontier_io = Ftes_pareto.Frontier_io

let ( let* ) = Result.bind

let schema_version = 1

type cell_result = {
  key : Synthetic.cell_key;
  costs : float option array;
  points : (int * Ftes_pareto.Archive.point) list;
  elapsed_s : float;
}

type t = {
  manifest_fingerprint : string;
  shard : int;
  lo : int;
  hi : int;
  complete : bool;
  cells : cell_result list;
}

let path ~dir shard = Filename.concat dir (Printf.sprintf "shard-%03d.json" shard)

let create ~manifest ~shard =
  let lo, hi = Manifest.shard_range manifest shard in
  {
    manifest_fingerprint = Manifest.fingerprint manifest;
    shard;
    lo;
    hi;
    complete = false;
    cells = [];
  }

let cell =
  let open Codec in
  let point =
    obj
      (let+ app = field "app" int fst
       and+ p = splice snd Frontier_io.point_fields in
       (app, p))
  in
  obj
    (let+ ser = field "ser" float (fun c -> c.key.Synthetic.ser)
     and+ hpd = field "hpd" float (fun c -> c.key.Synthetic.hpd)
     and+ policy =
       field "policy" Manifest.policy (fun c -> c.key.Synthetic.policy)
     and+ elapsed_s = field "elapsed_s" float (fun c -> c.elapsed_s)
     and+ costs = field "costs" (array (nullable float)) (fun c -> c.costs)
     and+ points = field "points" (list point) (fun c -> c.points) in
     { key = { Synthetic.ser; hpd; policy }; costs; points; elapsed_s })

let codec =
  let open Codec in
  versioned ~what:"campaign checkpoint" ~current:schema_version
    ~accept_v0:false
    (obj
       (let+ manifest_fingerprint =
          field "manifest_fingerprint" string (fun t -> t.manifest_fingerprint)
        and+ shard = field "shard" int (fun t -> t.shard)
        and+ lo = field "lo" int (fun t -> t.lo)
        and+ hi = field "hi" int (fun t -> t.hi)
        and+ complete = field "complete" bool (fun t -> t.complete)
        and+ cells = field "cells" (list cell) (fun t -> t.cells) in
        { manifest_fingerprint; shard; lo; hi; complete; cells }))

(* [specs] covers the shard's range: application [app]'s spec is at
   offset [app - lo].  Every point's design is re-validated against the
   problem regenerated for (cell, application). *)
let check_cell ~manifest ~specs ~lo ~hi ~index (expected : Synthetic.cell_key)
    c =
  let named p = Config.policy_name p in
  let n_costs = Array.length c.costs in
  if c.key <> expected then
    Error
      (Printf.sprintf
         "cell %d: key (%g, %g, %s) does not match the manifest grid \
          (%g, %g, %s)"
         index c.key.ser c.key.hpd (named c.key.policy) expected.ser
         expected.hpd (named expected.policy))
  else if n_costs <> hi - lo then
    Error
      (Printf.sprintf "costs: expected %d entries, found %d" (hi - lo) n_costs)
  else if
    Array.exists
      (function Some v -> not (Float.is_finite v) | None -> false)
      c.costs
  then Error "costs: non-finite cost"
  else
    let cell = { Workload.ser = expected.ser; hpd = expected.hpd } in
    let rec check acc row = function
      | [] -> Ok { c with points = List.rev acc }
      | (app, _) :: _ when app < lo || app >= hi ->
          Error
            (Printf.sprintf
               "cell %d, point %d: application %d outside the shard range \
                [%d, %d)"
               index row app lo hi)
      | (app, p) :: rest ->
          let problem =
            Workload.problem_of_spec ~params:manifest.Manifest.params cell
              specs.(app - lo)
          in
          let* p = Frontier_io.check_point ~problem ~row p in
          check ((app, p) :: acc) (row + 1) rest
    in
    check [] 1 c.points

let check ~manifest t =
  let expected_fp = Manifest.fingerprint manifest in
  let n_cells = Manifest.n_cells manifest in
  let n = List.length t.cells in
  if t.manifest_fingerprint <> expected_fp then
    Error
      (Printf.sprintf
         "manifest fingerprint %s does not match this campaign (%s)"
         t.manifest_fingerprint expected_fp)
  else if t.shard < 0 || t.shard >= manifest.Manifest.shards then
    Error
      (Printf.sprintf "shard %d outside [0, %d)" t.shard
         manifest.Manifest.shards)
  else
    let exp_lo, exp_hi = Manifest.shard_range manifest t.shard in
    if t.lo <> exp_lo || t.hi <> exp_hi then
      Error
        (Printf.sprintf
           "shard %d: range [%d, %d) does not match the plan [%d, %d)" t.shard
           t.lo t.hi exp_lo exp_hi)
    else if n > n_cells then
      Error
        (Printf.sprintf "%d cells recorded, the grid has only %d" n n_cells)
    else if t.complete && n <> n_cells then
      Error
        (Printf.sprintf "marked complete with %d of %d cells recorded" n
           n_cells)
    else
      let specs = Array.of_list (Manifest.specs_for_shard manifest t.shard) in
      (* [n <= n_cells]: the recorded cells run out first. *)
      let rec cells acc index expected recorded =
        match (expected, recorded) with
        | key :: expected, c :: recorded ->
            let* c =
              check_cell ~manifest ~specs ~lo:t.lo ~hi:t.hi ~index key c
            in
            cells (c :: acc) (index + 1) expected recorded
        | _ -> Ok { t with cells = List.rev acc }
      in
      cells [] 0 (Manifest.cells manifest) t.cells

let save ~dir t = Codec.save codec (path ~dir t.shard) t

let load ~manifest ~dir shard =
  let file = path ~dir shard in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no checkpoint" file)
  else
    let* t = Codec.load codec file in
    Result.map_error (Printf.sprintf "%s: %s" file)
      (if t.shard <> shard then
         Error (Printf.sprintf "holds shard %d, expected %d" t.shard shard)
       else check ~manifest t)
