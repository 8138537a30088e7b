module Codec = Ftes_util.Codec
module Workload = Ftes_gen.Workload
module Config = Ftes_core.Config

let schema_version = 1

let filename = "manifest.json"

type t = {
  params : Workload.params;
  apps : int;
  seed : int;
  shards : int;
  sers : float list;
  hpds : float list;
  policies : Config.hardening_policy list;
  eps : float;
}

let validate t =
  if t.apps < 1 then invalid_arg "Manifest.make: apps must be >= 1";
  if t.shards < 1 || t.shards > t.apps then
    invalid_arg "Manifest.make: shards must be within [1, apps]";
  let finite label vs =
    if vs = [] then invalid_arg ("Manifest.make: empty " ^ label ^ " axis");
    List.iter
      (fun v ->
        if not (Float.is_finite v) then
          invalid_arg ("Manifest.make: non-finite " ^ label ^ " value"))
      vs
  in
  finite "SER" t.sers;
  finite "HPD" t.hpds;
  if t.policies = [] then invalid_arg "Manifest.make: empty policy axis";
  if not (Float.is_finite t.eps) || t.eps < 0.0 then
    invalid_arg "Manifest.make: eps must be finite and non-negative"

let make ?(params = Workload.default_params) ?(sers = [ 1e-11 ])
    ?(hpds = [ 0.25 ]) ?(policies = [ Config.Fixed_min; Config.Optimize ])
    ?(eps = 0.0) ~apps ~seed ~shards () =
  let t = { params; apps; seed; shards; sers; hpds; policies; eps } in
  validate t;
  t

let cells t =
  List.concat_map
    (fun ser ->
      List.concat_map
        (fun hpd ->
          List.map
            (fun policy -> { Ftes_exp.Synthetic.ser; hpd; policy })
            t.policies)
        t.hpds)
    t.sers

let n_cells t =
  List.length t.sers * List.length t.hpds * List.length t.policies

let shard_range t i =
  if i < 0 || i >= t.shards then
    invalid_arg (Printf.sprintf "Manifest.shard_range: shard %d of %d" i t.shards);
  (i * t.apps / t.shards, (i + 1) * t.apps / t.shards)

let specs_for_shard t i =
  let lo, hi = shard_range t i in
  Workload.suite_slice ~params:t.params ~count:t.apps ~seed:t.seed ~lo ~hi ()

let archive_spec t = Ftes_pareto.Archive.spec ~eps:t.eps ()

let policy =
  Codec.conv Config.policy_name
    (function
      | "OPT" -> Ok Config.Optimize
      | "MIN" -> Ok Config.Fixed_min
      | "MAX" -> Ok Config.Fixed_max
      | name -> Error (Printf.sprintf "unknown hardening policy %S" name))
    Codec.string

let params : Workload.params Codec.t =
  let open Codec in
  let range name project =
    field name
      (conv
         (fun (lo, hi) -> [ lo; hi ])
         (function
           | [ lo; hi ] -> Ok (lo, hi) | _ -> Error "expected a [lo, hi] pair")
         (list float))
      project
  in
  obj
    (let+ n_library = field "n_library" int (fun p -> p.Workload.n_library)
     and+ levels = field "levels" int (fun p -> p.Workload.levels)
     and+ base_wcet_range =
       range "base_wcet_range" (fun p -> p.Workload.base_wcet_range)
     and+ cost_range = range "cost_range" (fun p -> p.Workload.cost_range)
     and+ speed_range = range "speed_range" (fun p -> p.Workload.speed_range)
     and+ mu_fraction_range =
       range "mu_fraction_range" (fun p -> p.Workload.mu_fraction_range)
     and+ gamma_range = range "gamma_range" (fun p -> p.Workload.gamma_range)
     and+ deadline_factor_range =
       range "deadline_factor_range" (fun p ->
           p.Workload.deadline_factor_range)
     and+ reduction_factor =
       field "reduction_factor" float (fun p -> p.Workload.reduction_factor)
     and+ clock_hz = field "clock_hz" float (fun p -> p.Workload.clock_hz) in
     { Workload.n_library; levels; base_wcet_range; cost_range; speed_range;
       mu_fraction_range; gamma_range; deadline_factor_range;
       reduction_factor; clock_hz })

let codec =
  let open Codec in
  versioned ~what:"campaign manifest" ~current:schema_version
    ~accept_v0:false
    (obj
       (let* apps = field "apps" int (fun t -> t.apps)
        and+ seed = field "seed" int (fun t -> t.seed)
        and+ shards = field "shards" int (fun t -> t.shards)
        and+ sers = field "sers" (list float) (fun t -> t.sers)
        and+ hpds = field "hpds" (list float) (fun t -> t.hpds)
        and+ policies = field "policies" (list policy) (fun t -> t.policies)
        and+ eps = field "eps" float (fun t -> t.eps)
        and+ params = field "params" params (fun t -> t.params) in
        let t = { params; apps; seed; shards; sers; hpds; policies; eps } in
        guard "campaign manifest" (fun () -> validate t; t)))

let fingerprint t = Ftes_util.Fingerprint.of_json (Codec.encode codec t)

let path ~dir = Filename.concat dir filename

let save ~dir t = Codec.save codec (path ~dir) t

let load ~dir =
  let file = path ~dir in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no campaign manifest" file)
  else Codec.load codec file
