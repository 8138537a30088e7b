module Json = Ftes_util.Json
module Codec = Ftes_util.Codec

let schema_version = 1

type verdict = Feasible | No_solution | Infeasible | Lint_failure | Failed

let verdict_name = function
  | Feasible -> "feasible"
  | No_solution -> "no-solution"
  | Infeasible -> "infeasible"
  | Lint_failure -> "lint-failure"
  | Failed -> "error"

let verdict_of_name = function
  | "feasible" -> Ok Feasible
  | "no-solution" -> Ok No_solution
  | "infeasible" -> Ok Infeasible
  | "lint-failure" -> Ok Lint_failure
  | "error" -> Ok Failed
  | other -> Error (Printf.sprintf "unknown verdict %S" other)

let exit_of_verdict = function
  | Feasible | No_solution | Failed -> Lifecycle.Success
  | Infeasible -> Lifecycle.Infeasible
  | Lint_failure -> Lifecycle.Lint_failure

type telemetry = {
  queue_wait_ns : int;
  wall_ns : int;
  sfp_hits : int;
  sfp_misses : int;
  eval_hits : int;
  eval_misses : int;
  cache_problems : int;
  registry_hits : int;
  registry_misses : int;
  reuse : Ftes_whatif.Reuse.t option;
}

type t = {
  id : string;
  seq : int;
  verdict : verdict;
  payload : Json.t;
  error : string option;
  telemetry : telemetry option;
}

let codec =
  let open Codec in
  let hits_misses =
    obj
      (let+ hits = field "hits" int fst and+ misses = field "misses" int snd in
       (hits, misses))
  in
  let telemetry =
    obj
      (let+ queue_wait_ns = field "queue_wait_ns" int (fun t -> t.queue_wait_ns)
       and+ wall_ns = field "wall_ns" int (fun t -> t.wall_ns)
       and+ sfp_hits, sfp_misses =
         field "sfp_cache" hits_misses (fun t -> (t.sfp_hits, t.sfp_misses))
       and+ eval_hits, eval_misses =
         field "evals" hits_misses (fun t -> (t.eval_hits, t.eval_misses))
       (* "registry" arrived with the what-if engine; pre-whatif
          envelopes lack it, so absence reads as zero. *)
       and+ registry_hits, registry_misses =
         field ~default:(0, 0) "registry" hits_misses (fun t ->
             (t.registry_hits, t.registry_misses))
       and+ cache_problems =
         field "cache_problems" int (fun t -> t.cache_problems)
       and+ reuse = opt "whatif" Ftes_whatif.Reuse.codec (fun t -> t.reuse) in
       { queue_wait_ns; wall_ns; sfp_hits; sfp_misses; eval_hits;
         eval_misses; cache_problems; registry_hits; registry_misses; reuse })
  in
  let verdict = conv verdict_name verdict_of_name string in
  let any = { encode = Fun.id; decode = (fun ~warn:_ json -> Ok json) } in
  versioned ~what:"response" ~current:schema_version ~accept_v0:true
    (obj
       (let+ id = field "id" string (fun t -> t.id)
        and+ seq = field "seq" int (fun t -> t.seq)
        and+ verdict = field "verdict" verdict (fun t -> t.verdict)
        and+ payload = field "payload" any (fun t -> t.payload)
        and+ error = opt "error" string (fun t -> t.error)
        and+ telemetry = opt "telemetry" telemetry (fun t -> t.telemetry) in
        { id; seq; verdict; payload; error; telemetry }))

let to_line t = Codec.to_string ~minify:true codec t
let of_string ?on_warning line = Codec.of_string ?on_warning codec line

let fingerprint t =
  Printf.sprintf "%s|%s|%s" (verdict_name t.verdict) t.id
    (Json.to_string ~minify:true t.payload)
