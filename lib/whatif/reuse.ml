type t = {
  delta_class : string;
  sfp_kept : int;
  sfp_dropped : int;
  evals_kept : int;
  evals_dropped : int;
  probes_kept : int;
  probes_dropped : int;
  steps_replayed : int;
  steps_total : int;
  preflight_reused : bool;
  witnesses_rechecked : int;
}

let codec =
  let open Ftes_util.Codec in
  let kept_dropped =
    obj
      (let+ kept = field "kept" int fst
       and+ dropped = field "dropped" int snd in
       (kept, dropped))
  in
  obj
    (let+ delta_class = field "class" string (fun t -> t.delta_class)
     and+ sfp_kept, sfp_dropped =
       field "sfp" kept_dropped (fun t -> (t.sfp_kept, t.sfp_dropped))
     and+ evals_kept, evals_dropped =
       field "evals" kept_dropped (fun t -> (t.evals_kept, t.evals_dropped))
     and+ probes_kept, probes_dropped =
       field "probes" kept_dropped (fun t -> (t.probes_kept, t.probes_dropped))
     and+ steps_replayed, steps_total =
       group "steps"
         (let+ replayed = field "replayed" int (fun t -> t.steps_replayed)
          and+ total = field "total" int (fun t -> t.steps_total) in
          (replayed, total))
     and+ preflight_reused =
       field "preflight_reused" bool (fun t -> t.preflight_reused)
     and+ witnesses_rechecked =
       field "witnesses_rechecked" int (fun t -> t.witnesses_rechecked)
     in
     { delta_class; sfp_kept; sfp_dropped; evals_kept; evals_dropped;
       probes_kept; probes_dropped; steps_replayed; steps_total;
       preflight_reused; witnesses_rechecked })

let of_json json = Ftes_util.Codec.decode codec json
