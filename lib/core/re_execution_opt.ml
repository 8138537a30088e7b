module Design = Ftes_model.Design
module Application = Ftes_model.Application
module Problem = Ftes_model.Problem
module Sfp = Ftes_sfp.Sfp
module Incremental = Ftes_sfp.Incremental

let c_grow_skips = Ftes_obs.Metrics.counter "kernel.grow_skips"

let c_grow_exp_elided = Ftes_obs.Metrics.counter "kernel.grow_exp_elided"

type accepted = { reexecs : int array; per_iteration_failure : float }

(* Greedy ascent: always spend the next re-execution where it buys the
   most system reliability.  Three accelerations over a from-scratch
   re-analysis per candidate, each preserving every float it produces
   (see DESIGN.md §10):

   - candidates are evaluated over the cached per-node exceedance
     tables with the shared fold prefix of formula (5) reused across
     the member sweep, instead of rebuilding formula (4) per candidate;
   - a candidate whose node is saturated ([Incremental.saturated]) is
     skipped: its bumped failure equals the current one bit-for-bit, so
     it can never win the strict acceptance test, and when every
     candidate ties the ascent stops (returns [None]) just the same;
   - formula (6)'s exponentiation runs only when a candidate's
     per-iteration failure is strictly below the best one seen this
     sweep.  Reliability is monotone non-increasing in the failure
     probability (each composed operation is monotone under rounding),
     so a candidate at or above the running minimum evaluates to at
     most the best reliability and would not displace the incumbent. *)
let ascend ?cache ?(kmax = Sfp.default_kmax) problem design =
  let members = Design.n_members design in
  let vectors_of member =
    match cache with
    | Some cache ->
        Ftes_par.Sfp_cache.node_vectors cache problem design ~member ~kmax
    | None ->
        Incremental.node_vectors
          (Sfp.node_analysis ~kmax (Design.pfail_vector problem design ~member))
  in
  let inc = Incremental.make (Array.init members vectors_of) in
  let app = problem.Problem.app in
  let iterations = Application.iterations_per_hour app in
  let goal = Application.reliability_goal app in
  let k = Array.make members 0 in
  let prefix = Array.make (members + 1) 1.0 in
  (* [Sfp.reliability] inlined with the iteration ceiling hoisted (the
     ceiling of a constant is the same float every call), keeping the
     per-candidate exp free of cross-module boxing. *)
  let iterations_ceil = Float.ceil iterations in
  (* The delta counters tally locally and reach the registry once. *)
  let skips = ref 0 and elided = ref 0 in
  let rec grow current =
    if current >= goal then
      Some
        { reexecs = Array.copy k;
          per_iteration_failure = Incremental.system_failure inc ~k }
    else begin
      Incremental.prefix_into inc ~k prefix;
      (* Sweep state as plain refs (unboxed locals): [best_j < 0] means
         no candidate yet; acceptance is strict ([r > best_r]), so ties
         keep the lowest member.  [best_pf] is the smallest candidate
         failure whose reliability is already folded in; candidates at
         or above it cannot displace it. *)
      let best_j = ref (-1) in
      let best_r = ref neg_infinity in
      let best_pf = ref infinity in
      for j = 0 to members - 1 do
        if k.(j) < kmax then
          if Incremental.saturated inc ~member:j ~k:k.(j) then incr skips
          else begin
            let pf = Incremental.candidate_failure inc ~k ~prefix ~j in
            if pf >= !best_pf && !best_j >= 0 then incr elided
            else begin
              let r =
                if pf >= 1.0 then 0.0
                else exp (iterations_ceil *. Float.log1p (-.pf))
              in
              if !best_j < 0 || r > !best_r then begin
                best_j := j;
                best_r := r
              end;
              if pf < !best_pf then best_pf := pf
            end
          end
      done;
      if !best_j < 0 then None
      else if !best_r > current then begin
        k.(!best_j) <- k.(!best_j) + 1;
        grow !best_r
      end
      else None
    end
  in
  let pf = Incremental.system_failure inc ~k in
  let accepted =
    grow
      (if pf >= 1.0 then 0.0 else exp (iterations_ceil *. Float.log1p (-.pf)))
  in
  if !skips > 0 then Ftes_obs.Metrics.add c_grow_skips !skips;
  if !elided > 0 then Ftes_obs.Metrics.add c_grow_exp_elided !elided;
  accepted

let search ?cache ?kmax problem design =
  Ftes_obs.Span.with_ ~name:"opt/reexec" (fun () ->
      ascend ?cache ?kmax problem design)

let for_mapping ?cache ?kmax problem design =
  Option.map (fun a -> a.reexecs) (search ?cache ?kmax problem design)

let optimize ?cache ?kmax problem design =
  Option.map
    (fun a -> { design with Design.reexecs = a.reexecs })
    (search ?cache ?kmax problem design)
