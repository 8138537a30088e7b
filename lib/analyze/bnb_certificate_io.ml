open Bnb_certificate
open Ftes_util.Codec

let schema_version = 1
let ints = array int

let prune : prune t =
  let arch name key c verdict project =
    case name project
      (let+ prefix = field "prefix" ints (fun (p, _, _) -> p)
       and+ subtree = field "subtree" bool (fun (_, s, _) -> s)
       and+ v = field key c (fun (_, _, v) -> v) in
       Arch_infeasible { prefix; subtree; verdict = verdict v })
  in
  union ~what:"prune" ~tag:"kind"
    [ case "cost-bound"
        (function
          | Cost_bound { prefix; lower_bound; incumbent_cost } ->
              Some (prefix, lower_bound, incumbent_cost)
          | _ -> None)
        (let+ prefix = field "prefix" ints (fun (p, _, _) -> p)
         and+ lower_bound = field "lower_bound" float (fun (_, l, _) -> l)
         and+ incumbent_cost = field "incumbent_cost" float (fun (_, _, c) -> c)
         in
         Cost_bound { prefix; lower_bound; incumbent_cost });
      arch "arch-unreliable" "proc" int
        (fun proc -> Unreliable proc)
        (function
          | Arch_infeasible { prefix; subtree; verdict = Unreliable proc } ->
              Some (prefix, subtree, proc)
          | _ -> None);
      arch "arch-deadline" "length_lower_bound_ms" float
        (fun lb -> Deadline lb)
        (function
          | Arch_infeasible { prefix; subtree; verdict = Deadline lb } ->
              Some (prefix, subtree, lb)
          | _ -> None);
      case "symmetry"
        (function
          | Symmetry { prefix; skipped; canonical } ->
              Some (prefix, skipped, canonical)
          | _ -> None)
        (let+ prefix = field "prefix" ints (fun (p, _, _) -> p)
         and+ skipped = field "skipped" int (fun (_, s, _) -> s)
         and+ canonical = field "canonical" int (fun (_, _, c) -> c) in
         Symmetry { prefix; skipped; canonical }) ]

let incumbent : incumbent t =
  obj
    (let+ members = field "members" ints (fun i -> i.members)
     and+ levels = field "levels" ints (fun i -> i.levels)
     and+ reexecs = field "reexecs" ints (fun i -> i.reexecs)
     and+ mapping = field "mapping" ints (fun i -> i.mapping)
     and+ cost = field "cost" float (fun i -> i.cost)
     and+ schedule_length_ms =
       field "schedule_length_ms" float (fun i -> i.schedule_length_ms)
     in
     { members; levels; reexecs; mapping; cost; schedule_length_ms })

let counters : counters t =
  obj
    (let+ expanded = field "expanded" int (fun k -> k.expanded)
     and+ closed = field "closed" int (fun k -> k.closed)
     and+ evaluated = field "evaluated" int (fun k -> k.evaluated)
     and+ pruned_cost = field "pruned_cost" int (fun k -> k.pruned_cost)
     and+ pruned_arch = field "pruned_arch" int (fun k -> k.pruned_arch)
     and+ pruned_symmetry =
       field "pruned_symmetry" int (fun k -> k.pruned_symmetry)
     and+ pruned_levels = field "pruned_levels" int (fun k -> k.pruned_levels)
     and+ pruned_mappings =
       field "pruned_mappings" int (fun k -> k.pruned_mappings)
     in
     { expanded; closed; evaluated; pruned_cost; pruned_arch;
       pruned_symmetry; pruned_levels; pruned_mappings })

let codec : Bnb_certificate.t t =
  versioned ~what:"optimality certificate" ~current:schema_version
    ~accept_v0:false
    (obj
       (let+ summary =
          field "problem" Certificate_io.summary (fun c -> c.summary)
        and+ kmax, search_space, represented_subsets =
          group "premises"
            (let+ kmax = field "kmax" int (fun c -> c.kmax)
             and+ search_space = field "search_space" float (fun c ->
                 c.search_space)
             and+ represented_subsets =
               field "represented_subsets" float (fun c ->
                   c.represented_subsets)
             in
             (kmax, search_space, represented_subsets))
        and+ heuristic_cost, optimal_cost =
          group "costs"
            (let+ heuristic = field "heuristic" float_or_null (fun c ->
                 c.heuristic_cost)
             and+ optimal = field "optimal" float_or_null (fun c ->
                 c.optimal_cost) in
             (heuristic, optimal))
        and+ incumbent =
          field "incumbent" (nullable incumbent) (fun c -> c.incumbent)
        and+ counters = field "counters" counters (fun c -> c.counters)
        and+ prunes = field "prunes" (list prune) (fun c -> c.prunes) in
        { summary; kmax; search_space; represented_subsets; heuristic_cost;
          optimal_cost; incumbent; counters; prunes }))

let to_json = encode codec
let save path c = save codec path c
let load ?on_warning path = load ?on_warning codec path
