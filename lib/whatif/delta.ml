open Ftes_model
module Codec = Ftes_util.Codec

let ( let* ) = Result.bind

type t =
  | Deadline_set of float
  | Deadline_scale of float
  | Period_set of float
  | Period_scale of float
  | Gamma_set of float
  | Wcet_scale of { node : int; factor : float }
  | Ser_scale of { node : int; factor : float }
  | Hversion_cost_set of { node : int; level : int; cost : float }
  | Hversion_wcet_set of { node : int; level : int; proc : int; wcet_ms : float }
  | Hversion_pfail_set of { node : int; level : int; proc : int; pfail : float }
  | Node_add of Platform.node_type
  | Node_remove of int
  | Kmax_set of int

let class_name = function
  | Deadline_set _ -> "deadline-set"
  | Deadline_scale _ -> "deadline-scale"
  | Period_set _ -> "period-set"
  | Period_scale _ -> "period-scale"
  | Gamma_set _ -> "gamma-set"
  | Wcet_scale _ -> "wcet-scale"
  | Ser_scale _ -> "ser-scale"
  | Hversion_cost_set _ -> "hversion-cost-set"
  | Hversion_wcet_set _ -> "hversion-wcet-set"
  | Hversion_pfail_set _ -> "hversion-pfail-set"
  | Node_add _ -> "node-add"
  | Node_remove _ -> "node-remove"
  | Kmax_set _ -> "kmax-set"

let class_names =
  [ "deadline-set"; "deadline-scale"; "period-set"; "period-scale"; "gamma-set";
    "wcet-scale"; "ser-scale"; "hversion-cost-set"; "hversion-wcet-set";
    "hversion-pfail-set"; "node-add"; "node-remove"; "kmax-set" ]

let positive_factor label factor =
  if Float.is_finite factor && factor > 0. then Ok ()
  else Error (Printf.sprintf "%s: factor must be positive and finite" label)

(* Rebuild the application with some globals replaced.  The period is
   always passed explicitly — [Application.make] defaults it to the
   deadline, which would silently couple the two under a deadline
   delta. *)
let with_app problem ?deadline_ms ?period_ms ?gamma label =
  let app = problem.Problem.app in
  let deadline_ms =
    Option.value deadline_ms ~default:app.Application.deadline_ms
  in
  let period_ms = Option.value period_ms ~default:app.Application.period_ms in
  let gamma = Option.value gamma ~default:app.Application.gamma in
  Codec.guard label (fun () ->
      let app =
        Application.make ~name:app.Application.name
          ~process_names:app.Application.process_names ~period_ms
          ~graph:app.Application.graph ~deadline_ms ~gamma
          ~recovery_overhead_ms:app.Application.recovery_overhead_ms ()
      in
      Problem.make ~app ~library:problem.Problem.library)

let with_library problem library label =
  Codec.guard label (fun () -> Problem.make ~app:problem.Problem.app ~library)

(* Replace library node [j] by [f (node j)].  Untouched node types are
   passed through physically so their tables stay the exact bits a cold
   load of the perturbed problem would carry. *)
let edit_node problem j f label =
  if j < 0 || j >= Problem.n_library problem then
    Error (Printf.sprintf "%s: node index %d out of range" label j)
  else
    let* nt = f (Problem.node problem j) in
    let library =
      Array.mapi
        (fun i old -> if i = j then nt else old)
        problem.Problem.library
    in
    with_library problem library label

(* Rebuild one node type with the version at [level] replaced by
   [f version]; other versions pass through untouched.  [node_type]
   re-validates hardening monotonicity over the edited array. *)
let edit_version (nt : Platform.node_type) ~level f label =
  if level < 1 || level > Platform.levels nt then
    Error (Printf.sprintf "%s: level %d out of range" label level)
  else
    Codec.guard label (fun () ->
        let versions =
          Array.map
            (fun (v : Platform.hversion) -> if v.level = level then f v else v)
            nt.Platform.versions
        in
        Platform.node_type ~name:nt.Platform.node_name ~versions)

let set_cell label arr i value =
  if i < 0 || i >= Array.length arr then
    invalid_arg (Printf.sprintf "%s: process index %d out of range" label i)
  else Array.mapi (fun k x -> if k = i then value else x) arr

let apply problem delta =
  match delta with
  | Deadline_set d -> with_app problem ~deadline_ms:d "deadline-set"
  | Deadline_scale f ->
      let* () = positive_factor "deadline-scale" f in
      with_app problem
        ~deadline_ms:(problem.Problem.app.Application.deadline_ms *. f)
        "deadline-scale"
  | Period_set p -> with_app problem ~period_ms:p "period-set"
  | Period_scale f ->
      let* () = positive_factor "period-scale" f in
      with_app problem
        ~period_ms:(problem.Problem.app.Application.period_ms *. f)
        "period-scale"
  | Gamma_set g -> with_app problem ~gamma:g "gamma-set"
  | Wcet_scale { node; factor } ->
      let* () = positive_factor "wcet-scale" factor in
      edit_node problem node
        (fun nt ->
          Codec.guard "wcet-scale" (fun () ->
              let versions =
                Array.map
                  (fun (v : Platform.hversion) ->
                    Platform.hversion ~level:v.level ~cost:v.cost
                      ~wcet_ms:(Array.map (fun w -> w *. factor) v.wcet_ms)
                      ~pfail:v.pfail)
                  nt.Platform.versions
              in
              Platform.node_type ~name:nt.Platform.node_name ~versions))
        "wcet-scale"
  | Ser_scale { node; factor } ->
      let* () = positive_factor "ser-scale" factor in
      edit_node problem node
        (fun nt ->
          Codec.guard "ser-scale" (fun () ->
              let versions =
                Array.map
                  (fun (v : Platform.hversion) ->
                    Platform.hversion ~level:v.level ~cost:v.cost
                      ~wcet_ms:v.wcet_ms
                      ~pfail:(Array.map (fun p -> p *. factor) v.pfail))
                  nt.Platform.versions
              in
              Platform.node_type ~name:nt.Platform.node_name ~versions))
        "ser-scale"
  | Hversion_cost_set { node; level; cost } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost ~wcet_ms:v.wcet_ms
                ~pfail:v.pfail)
            "hversion-cost-set")
        "hversion-cost-set"
  | Hversion_wcet_set { node; level; proc; wcet_ms } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost:v.cost
                ~wcet_ms:(set_cell "hversion-wcet-set" v.wcet_ms proc wcet_ms)
                ~pfail:v.pfail)
            "hversion-wcet-set")
        "hversion-wcet-set"
  | Hversion_pfail_set { node; level; proc; pfail } ->
      edit_node problem node
        (fun nt ->
          edit_version nt ~level
            (fun v ->
              Platform.hversion ~level:v.level ~cost:v.cost ~wcet_ms:v.wcet_ms
                ~pfail:(set_cell "hversion-pfail-set" v.pfail proc pfail))
            "hversion-pfail-set")
        "hversion-pfail-set"
  | Node_add nt ->
      with_library problem
        (Array.append problem.Problem.library [| nt |])
        "node-add"
  | Node_remove j ->
      let n = Problem.n_library problem in
      if j < 0 || j >= n then
        Error (Printf.sprintf "node-remove: node index %d out of range" j)
      else
        with_library problem
          (Array.init (n - 1) (fun i ->
               problem.Problem.library.(if i < j then i else i + 1)))
          "node-remove"
  | Kmax_set k ->
      if k < 0 then Error "kmax-set: kmax must be non-negative" else Ok problem

let kmax_override = function Kmax_set k -> Some k | _ -> None

type footprint = {
  node_map : int -> int option;
  tables_dirty : node:int -> level:int -> bool;
  pfail_dirty : node:int -> level:int -> bool;
  eval_policy : [ `Keep | `Drop | `Remap_slack of float ];
  keep_probes : bool;
}

let footprint problem delta =
  let identity i = Some i in
  let nothing ~node:_ ~level:_ = false in
  let whole_node j ~node ~level:_ = node = j in
  let one_cell j l ~node ~level = node = j && level = l in
  let base =
    { node_map = identity;
      tables_dirty = nothing;
      pfail_dirty = nothing;
      eval_policy = `Keep;
      keep_probes = true }
  in
  match delta with
  | Deadline_set d -> { base with eval_policy = `Remap_slack d; keep_probes = false }
  | Deadline_scale f ->
      (* Must be the same float expression [apply] used, so the remapped
         slack is bit-identical to a fresh [deadline -. length]. *)
      { base with
        eval_policy =
          `Remap_slack (problem.Problem.app.Application.deadline_ms *. f);
        keep_probes = false }
  | Period_set _ | Period_scale _ | Gamma_set _ ->
      (* The stored re-execution choice maximizes the margin against the
         per-iteration budget, which reads gamma and the period. *)
      { base with eval_policy = `Drop; keep_probes = false }
  | Wcet_scale { node; _ } -> { base with tables_dirty = whole_node node }
  | Ser_scale { node; _ } -> { base with pfail_dirty = whole_node node }
  | Hversion_cost_set { node; level; _ } ->
      { base with tables_dirty = one_cell node level }
  | Hversion_wcet_set { node; level; _ } ->
      { base with tables_dirty = one_cell node level }
  | Hversion_pfail_set { node; level; _ } ->
      { base with pfail_dirty = one_cell node level }
  | Node_add _ -> base
  | Node_remove j ->
      { base with
        node_map = (fun i -> if i = j then None else if i > j then Some (i - 1) else Some i) }
  | Kmax_set _ ->
      (* SFP entries carry kmax in their key and survive; eval results
         bake the chosen re-execution counts in, so they go. *)
      { base with eval_policy = `Drop; keep_probes = false }

let cannot_weaken problem delta =
  let app = problem.Problem.app in
  match delta with
  | Deadline_set d -> d <= app.Application.deadline_ms
  | Deadline_scale f -> f <= 1.
  | Period_set p -> p <= app.Application.period_ms && p > 0.
  | Period_scale f -> f <= 1.
  | Gamma_set g -> g <= app.Application.gamma
  | Wcet_scale { factor; _ } -> factor >= 1.
  | Ser_scale { factor; _ } -> factor >= 1.
  | Hversion_cost_set { node; level; cost } ->
      (* Pre-flight cost bounds are lower bounds; raising a cost keeps
         them valid. *)
      node >= 0 && node < Problem.n_library problem
      && level >= 1 && level <= Problem.levels problem node
      && cost >= Problem.cost problem ~node ~level
  | Hversion_wcet_set { node; level; proc; wcet_ms } ->
      node >= 0 && node < Problem.n_library problem
      && level >= 1 && level <= Problem.levels problem node
      && proc >= 0 && proc < Problem.n_processes problem
      && wcet_ms >= Problem.wcet problem ~node ~level ~proc
  | Hversion_pfail_set { node; level; proc; pfail } ->
      node >= 0 && node < Problem.n_library problem
      && level >= 1 && level <= Problem.levels problem node
      && proc >= 0 && proc < Problem.n_processes problem
      && pfail >= Problem.pfail problem ~node ~level ~proc
  | Node_add _ | Node_remove _ | Kmax_set _ -> false

(* Wire codec.  The node-type payload is Problem_io's library entry,
   so a node copied out of an exported problem file pastes straight into
   a node-add delta.  Ranges are validated eagerly, before any problem
   is in scope; bounds against a concrete instance (node/level/proc
   existence) remain [apply]'s job. *)
let codec =
  let open Codec in
  let checked ok what c =
    conv Fun.id
      (fun v -> if ok v then Ok v else Error (Printf.sprintf what v))
      c
  in
  let positive =
    checked
      (fun v -> Float.is_finite v && v > 0.)
      "must be positive and finite (got %g)" float
  in
  let index = checked (fun v -> v >= 0) "must be >= 0 (got %d)" int in
  let level = checked (fun v -> v >= 1) "must be >= 1 (got %d)" int in
  let single name key c inject project =
    case name project (let+ v = field key c Fun.id in inject v)
  in
  let node_factor name inject project =
    case name project
      (let+ node = field "node" index fst
       and+ factor = field "factor" positive snd in
       inject node factor)
  in
  let cell name key c inject project =
    case name project
      (let+ node = field "node" index (fun (n, _, _, _) -> n)
       and+ level = field "level" level (fun (_, l, _, _) -> l)
       and+ proc = field "proc" index (fun (_, _, p, _) -> p)
       and+ v = field key c (fun (_, _, _, v) -> v) in
       inject node level proc v)
  in
  union ~what:"delta" ~tag:"class"
    [ single "deadline-set" "deadline_ms" positive
        (fun d -> Deadline_set d)
        (function Deadline_set d -> Some d | _ -> None);
      single "deadline-scale" "factor" positive
        (fun f -> Deadline_scale f)
        (function Deadline_scale f -> Some f | _ -> None);
      single "period-set" "period_ms" positive
        (fun p -> Period_set p)
        (function Period_set p -> Some p | _ -> None);
      single "period-scale" "factor" positive
        (fun f -> Period_scale f)
        (function Period_scale f -> Some f | _ -> None);
      single "gamma-set" "gamma"
        (checked
           (fun g -> Float.is_finite g && g > 0. && g < 1.)
           "must lie in (0, 1) (got %g)" float)
        (fun g -> Gamma_set g)
        (function Gamma_set g -> Some g | _ -> None);
      node_factor "wcet-scale"
        (fun node factor -> Wcet_scale { node; factor })
        (function
          | Wcet_scale { node; factor } -> Some (node, factor) | _ -> None);
      node_factor "ser-scale"
        (fun node factor -> Ser_scale { node; factor })
        (function
          | Ser_scale { node; factor } -> Some (node, factor) | _ -> None);
      case "hversion-cost-set"
        (function
          | Hversion_cost_set { node; level; cost } -> Some (node, level, cost)
          | _ -> None)
        (let+ node = field "node" index (fun (n, _, _) -> n)
         and+ level = field "level" level (fun (_, l, _) -> l)
         and+ cost = field "cost" positive (fun (_, _, c) -> c) in
         Hversion_cost_set { node; level; cost });
      cell "hversion-wcet-set" "wcet_ms" positive
        (fun node level proc wcet_ms ->
          Hversion_wcet_set { node; level; proc; wcet_ms })
        (function
          | Hversion_wcet_set { node; level; proc; wcet_ms } ->
              Some (node, level, proc, wcet_ms)
          | _ -> None);
      cell "hversion-pfail-set" "pfail"
        (checked
           (fun p -> Float.is_finite p && p >= 0. && p < 1.)
           "must lie in [0, 1) (got %g)" float)
        (fun node level proc pfail ->
          Hversion_pfail_set { node; level; proc; pfail })
        (function
          | Hversion_pfail_set { node; level; proc; pfail } ->
              Some (node, level, proc, pfail)
          | _ -> None);
      single "node-add" "node_type" Problem_io.node_type
        (fun nt -> Node_add nt)
        (function Node_add nt -> Some nt | _ -> None);
      single "node-remove" "node" index
        (fun j -> Node_remove j)
        (function Node_remove j -> Some j | _ -> None);
      single "kmax-set" "kmax" index
        (fun k -> Kmax_set k)
        (function Kmax_set k -> Some k | _ -> None) ]

let to_json = Codec.encode codec
let of_json json = Codec.decode codec json
