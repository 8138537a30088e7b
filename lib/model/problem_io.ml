open Ftes_util.Codec

(* v1 added the explicit "schema_version" field; versionless documents
   are the pre-versioning format, accepted as v0 with a deprecation
   warning.  The payload of v0 and v1 is identical — the field exists
   so that a future payload change can be told apart from a corrupt
   file instead of surfacing as a confusing constructor error. *)
let schema_version = 1

let edge : Task_graph.edge t =
  obj
    (let+ src = field "src" int (fun e -> e.Task_graph.src)
     and+ dst = field "dst" int (fun e -> e.Task_graph.dst)
     and+ transmission_ms =
       field "transmission_ms" float (fun e -> e.Task_graph.transmission_ms)
     in
     { Task_graph.src; dst; transmission_ms })

let hversion : Platform.hversion t =
  obj
    (let* level = field "level" int (fun v -> v.Platform.level)
     and+ cost = field "cost" float (fun v -> v.Platform.cost)
     and+ wcet_ms = field "wcet_ms" (array float) (fun v -> v.Platform.wcet_ms)
     and+ pfail = field "pfail" (array float) (fun v -> v.Platform.pfail) in
     guard "h-version" (fun () ->
         Platform.hversion ~level ~cost ~wcet_ms ~pfail))

let node_type : Platform.node_type t =
  obj
    (let* name = field "name" string (fun nt -> nt.Platform.node_name)
     and+ versions =
       field "versions" (array hversion) (fun nt -> nt.Platform.versions)
     in
     guard ("node " ^ name) (fun () -> Platform.node_type ~name ~versions))

let application : Application.t t =
  let number name project = field name float project in
  obj
    (let* name = field "name" string (fun a -> a.Application.name)
     and+ deadline_ms =
       number "deadline_ms" (fun a -> a.Application.deadline_ms)
     and+ period_ms = number "period_ms" (fun a -> a.Application.period_ms)
     and+ gamma = number "gamma" (fun a -> a.Application.gamma)
     and+ recovery_overhead_ms =
       number "recovery_overhead_ms" (fun a ->
           a.Application.recovery_overhead_ms)
     and+ process_names =
       field "processes" (array string) (fun a -> a.Application.process_names)
     and+ edges =
       field "edges" (list edge) (fun a -> Task_graph.edges a.Application.graph)
     in
     Result.bind
       (guard "graph" (fun () ->
            Task_graph.make ~n:(Array.length process_names) edges))
       (fun graph ->
         guard "application" (fun () ->
             Application.make ~name ~process_names ~period_ms ~graph
               ~deadline_ms ~gamma ~recovery_overhead_ms ())))

let codec : Problem.t t =
  versioned ~what:"document" ~current:schema_version ~accept_v0:true
    (obj
       (let* app = field "application" application (fun p -> p.Problem.app)
        and+ library =
          field "library" (array node_type) (fun p -> p.Problem.library)
        in
        guard "problem" (fun () -> Problem.make ~app ~library)))

let to_json = encode codec
let save path problem = save codec path problem
let load ?on_warning path = load ?on_warning codec path
