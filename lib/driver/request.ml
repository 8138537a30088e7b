module Json = Ftes_util.Json
module Codec = Ftes_util.Codec
module Config = Ftes_core.Config
module Problem = Ftes_model.Problem
module Problem_io = Ftes_model.Problem_io
module Objective = Ftes_pareto.Objective
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus

let ( let* ) = Result.bind

let schema_version = 1

type command =
  | Analyze
  | Optimize
  | Exact of { limit : int option }
  | Pareto of {
      eps : float;
      objectives : Objective.t list;
      ref_cost : float option;
    }

let command_name = function
  | Analyze -> "analyze"
  | Optimize -> "optimize"
  | Exact _ -> "exact"
  | Pareto _ -> "pareto"

type whatif = { base_id : string option; delta : Ftes_whatif.Delta.t }

type t = {
  id : string;
  command : command;
  strategy : string;
  config : Config.t;
  problem : Problem.t;
  origin : [ `Example of string | `Inline | `Base of string ];
  source : string;
  whatif : whatif option;
}

(* --- problem & strategy resolution (moved from bin/cli_driver) --- *)

let problem_of_example = function
  | "fig1" -> Ok (Ftes_cc.Fig_examples.fig1_problem ())
  | "fig3" -> Ok (Ftes_cc.Fig_examples.fig3_problem ())
  | "cc" | "cruise-control" -> Ok (Ftes_cc.Cruise_control.problem ())
  | other ->
      Error
        (Printf.sprintf "unknown example %S (try fig1, fig3, cc)" other)

let config_of_strategy = function
  | "opt" -> Ok Config.default
  | "min" -> Ok Config.min_strategy
  | "max" -> Ok Config.max_strategy
  | other ->
      Error (Printf.sprintf "unknown strategy %S (try opt, min, max)" other)

(* --- policy spellings --- *)

let slack_name = function
  | Scheduler.Shared -> Ok "shared"
  | Scheduler.Conservative -> Ok "conservative"
  | Scheduler.Dedicated -> Ok "dedicated"
  | Scheduler.Per_process _ | Scheduler.Checkpointed _ ->
      Error "slack: only shared, conservative and dedicated travel on the wire"

let slack_of_name = function
  | "shared" -> Ok Scheduler.Shared
  | "conservative" -> Ok Scheduler.Conservative
  | "dedicated" -> Ok Scheduler.Dedicated
  | other ->
      Error
        (Printf.sprintf
           "unknown slack policy %S (try shared, conservative, dedicated)"
           other)

let bus_to_json = function
  | Bus.Fcfs -> Json.String "fcfs"
  | Bus.Tdma { slot_ms } ->
      Json.Object [ ("tdma", Json.Object [ ("slot_ms", Json.Number slot_ms) ]) ]

let bus_of_json = function
  | Json.String "fcfs" -> Ok Bus.Fcfs
  | Json.String other ->
      Error
        (Printf.sprintf
           "unknown bus policy %S (try \"fcfs\" or {\"tdma\": {\"slot_ms\": \
            ...}})"
           other)
  | Json.Object _ as json ->
      let* tdma = Json.member "tdma" json in
      let* slot_ms = Result.bind (Json.member "slot_ms" tdma) Json.to_float in
      if Float.is_finite slot_ms && slot_ms > 0.0 then
        Ok (Bus.Tdma { slot_ms })
      else Error "bus: tdma slot_ms must be finite and positive"
  | _ -> Error "bus: expected a string or an object"

(* --- the wire description --- *)

let command_of ~limit ~eps ~objectives ~ref_cost = function
  | "analyze" -> Ok Analyze
  | "optimize" -> Ok Optimize
  | "exact" -> (
      match limit with
      | Some n when n < 1 -> Error "limit must be positive"
      | _ -> Ok (Exact { limit }))
  | "pareto" ->
      let eps = Option.value ~default:0.0 eps in
      if not (Float.is_finite eps) || eps < 0.0 then
        Error "eps must be finite and non-negative"
      else
        let objectives = Option.value ~default:Objective.all objectives in
        Ok (Pareto { eps; objectives; ref_cost })
  | other ->
      Error
        (Printf.sprintf
           "unknown command %S (try analyze, optimize, exact, pareto)" other)

(* Decoding yields a function of the base resolver: a what-if request
   may name its base instead of carrying a problem, and only a resident
   session can resolve that name.  Forward compatibility: an unknown
   field in a v1 envelope is ignored with a warning, never rejected, so
   envelope growth (as "base_id"/"delta" grew) cannot strand an older
   daemon. *)
let wire =
  let open Codec in
  let bus = { encode = bus_to_json; decode = (fun ~warn:_ -> bus_of_json) } in
  let objectives = conv Objective.names Objective.parse_list string in
  let whatif f t = Option.bind t.whatif f in
  let+ id = field "id" string (fun t -> t.id)
  and+ name = field "command" string (fun t -> command_name t.command)
  and+ strategy = field ~default:"opt" "strategy" string (fun t -> t.strategy)
  and+ limit =
    opt "limit" int (fun t ->
        match t.command with Exact { limit } -> limit | _ -> None)
  and+ eps =
    opt "eps" float (fun t ->
        match t.command with Pareto { eps; _ } -> Some eps | _ -> None)
  and+ objectives =
    opt "objectives" objectives (fun t ->
        match t.command with
        | Pareto { objectives; _ } -> Some objectives
        | _ -> None)
  and+ ref_cost =
    opt "ref_cost" float (fun t ->
        match t.command with Pareto { ref_cost; _ } -> ref_cost | _ -> None)
  and+ slack =
    opt "slack" string (fun t ->
        match slack_name t.config.Config.slack with
        | Ok "shared" | Error _ -> None
        | Ok name -> Some name)
  and+ bus =
    opt "bus" bus (fun t ->
        match t.config.Config.bus with Bus.Fcfs -> None | bus -> Some bus)
  and+ kmax =
    opt "kmax" int (fun t ->
        let k = t.config.Config.kmax in
        if k = Config.default.Config.kmax then None else Some k)
  and+ base_id = opt "base_id" string (whatif (fun w -> w.base_id))
  and+ delta =
    opt "delta" Ftes_whatif.Delta.codec (whatif (fun w -> Some w.delta))
  and+ example =
    opt "example" string (fun t ->
        match t.origin with `Example name -> Some name | _ -> None)
  and+ inline =
    opt "problem" Problem_io.codec (fun t ->
        match t.origin with `Inline -> Some t.problem | _ -> None)
  in
  fun resolve_base ->
    let ( let* ) = Result.bind in
    if id = "" then Error "id must be a non-empty string"
    else
      let* command = command_of ~limit ~eps ~objectives ~ref_cost name in
      let* config = config_of_strategy strategy in
      let* slack =
        match slack with
        | Some name -> Result.map Option.some (slack_of_name name)
        | None -> Ok None
      in
      let* config =
        match kmax with
        | Some k when k < 0 -> Error "kmax must be non-negative"
        | Some k -> Ok (Config.with_kmax k config)
        | None -> Ok config
      in
      let config =
        config
        |> (match slack with Some s -> Config.with_slack s | None -> Fun.id)
        |> match bus with Some b -> Config.with_bus b | None -> Fun.id
      in
      let* whatif =
        match (delta, base_id) with
        | _, Some "" -> Error "base_id must be a non-empty string"
        | None, None -> Ok None
        | None, Some _ -> Error "base_id requires a \"delta\""
        | Some _, _ when command <> Optimize ->
            Error "\"delta\" is only valid on an optimize request"
        | Some delta, base_id -> Ok (Some { base_id; delta })
      in
      let* problem, origin, source =
        match (inline, example, whatif) with
        | Some _, Some _, _ ->
            Error "give either \"problem\" or \"example\", not both"
        | Some problem, None, _ ->
            let name = problem.Problem.app.Ftes_model.Application.name in
            Ok (problem, `Inline, "inline:" ^ name)
        | None, Some name, _ ->
            let* problem = problem_of_example name in
            Ok (problem, `Example name, "example:" ^ name)
        | None, None, Some { base_id = Some base; _ } -> (
            (* The daemon resolves the id against its registry of
               recorded runs. *)
            match resolve_base with
            | None ->
                Error "base_id needs a resident session (no base resolver here)"
            | Some resolve -> (
                match resolve base with
                | Some problem -> Ok (problem, `Base base, "base:" ^ base)
                | None ->
                    Error (Printf.sprintf "unknown base request id %S" base)))
        | None, None, _ ->
            Error "request carries neither \"problem\" nor \"example\""
      in
      Ok { id; command; strategy; config; problem; origin; source; whatif }

let envelope resolve_base =
  Codec.(
    versioned ~what:"request" ~current:schema_version ~accept_v0:true
      (obj ~unknown:"request" (let* resolve = wire in resolve resolve_base)))

let codec = envelope None

let of_string ?on_warning ?resolve_base line =
  Codec.of_string ?on_warning (envelope resolve_base) line

let to_string t = Codec.to_string ~minify:true codec t

(* --- programmatic constructor --- *)

let counter = Atomic.make 0

let make ?id ?(strategy = "opt") ?slack ?bus ?kmax ?whatif command problem =
  let* config = config_of_strategy strategy in
  let config =
    config
    |> (match slack with Some s -> Config.with_slack s | None -> Fun.id)
    |> (match bus with Some b -> Config.with_bus b | None -> Fun.id)
    |> match kmax with Some k -> Config.with_kmax k | None -> Fun.id
  in
  let* () =
    match slack with
    | Some s -> Result.map (fun _ -> ()) (slack_name s)
    | None -> Ok ()
  in
  let* problem, origin, source =
    match problem with
    | `Example name ->
        let* problem = problem_of_example name in
        Ok (problem, `Example name, "example:" ^ name)
    | `Problem problem ->
        let name = problem.Problem.app.Ftes_model.Application.name in
        Ok (problem, `Inline, "inline:" ^ name)
  in
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "req-%d" (Atomic.fetch_and_add counter 1)
  in
  if id = "" then Error "id must be a non-empty string"
  else
    let* () =
      match whatif with
      | Some _ when command <> Optimize ->
          Error "a delta is only valid on an optimize request"
      | Some { base_id = Some ""; _ } ->
          Error "base_id must be a non-empty string"
      | Some _ | None -> Ok ()
    in
    Ok { id; command; strategy; config; problem; origin; source; whatif }
