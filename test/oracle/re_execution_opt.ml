(* Reference re-execution ascent: rebuilds formula (4) for every
   candidate from the per-node analyses and folds formula (5) from
   scratch.  [Ftes_core.Re_execution_opt.search] must accept the same
   vector with the same failure, bit for bit. *)

module Design = Ftes_model.Design
module Application = Ftes_model.Application
module Problem = Ftes_model.Problem
module Sfp = Ftes_sfp.Sfp

type accepted = Ftes_core.Re_execution_opt.accepted = {
  reexecs : int array;
  per_iteration_failure : float;
}

let search ?cache ?(kmax = Sfp.default_kmax) problem design =
  let members = Design.n_members design in
  let analyse member =
    match cache with
    | Some cache ->
        Ftes_par.Sfp_cache.node_analysis cache problem design ~member ~kmax
    | None ->
        Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member)
  in
  let analyses = Array.init members analyse in
  let app = problem.Problem.app in
  let iterations = Application.iterations_per_hour app in
  let goal = Application.reliability_goal app in
  let k = Array.make members 0 in
  let failure_of k = Sfp.system_failure_per_iteration analyses ~k in
  let reliability_of pf =
    Sfp.reliability ~per_iteration_failure:pf ~iterations_per_hour:iterations
  in
  (* Greedy ascent: always spend the next re-execution where it buys the
     most system reliability; [pf] is the failure of the current [k]. *)
  let rec grow pf current =
    if current >= goal then
      Some { reexecs = Array.copy k; per_iteration_failure = pf }
    else begin
      let best = ref None in
      for j = 0 to members - 1 do
        if k.(j) < kmax then begin
          k.(j) <- k.(j) + 1;
          let pf = failure_of k in
          let r = reliability_of pf in
          k.(j) <- k.(j) - 1;
          match !best with
          | Some (_, br, _) when br >= r -> ()
          | Some _ | None -> best := Some (j, r, pf)
        end
      done;
      match !best with
      | None -> None
      | Some (j, r, pf) when r > current ->
          k.(j) <- k.(j) + 1;
          grow pf r
      | Some _ ->
          (* No increment improves reliability any further: the goal is
             unreachable at these hardening levels. *)
          None
    end
  in
  let pf = failure_of k in
  grow pf (reliability_of pf)

let for_mapping ?cache ?kmax problem design =
  Option.map (fun a -> a.reexecs) (search ?cache ?kmax problem design)
