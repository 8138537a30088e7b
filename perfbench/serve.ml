(* serve-session: one designer's closed-loop session against a real
   `ftes serve --batch 1` subprocess, one request outstanding at a time.

   The daemon runs with --batch 1 because Daemon.read_batch blocks until
   it has --batch lines or EOF: under the default --batch 16 a client
   that waits for each answer before sending the next never gets one.

   A session is 4 blocks; every block holds the same mix of units,
   shuffled by the seed:
   - 10 repeat questions: an optimize on a resident problem (cc, fig1,
     fig3 or one of three inline synthetics) under some strategy and
     slack/bus policy;
   - 4 what-if units: such an optimize, then a nudge naming it as
     base_id with a one-field delta;
   - 2 first-seen inline synthetic problems (tens of KB each);
   - 2 analyze, pareto or small exact requests.
   Every unit has a fixed request id, so each answer has one pinned
   fingerprint whatever the order.  A block registers 20 recorded walks;
   the daemon's recorded-walk registry shares the 64-entry
   --max-problems cap and keeps nothing once full, so in the fourth
   block nudges naming newer bases are answered "no recorded optimize
   walk".  That is a known defect: the session keeps the daemon's
   defaults, and those answers, the seed commit's own, are counted as
   known defects in fail_ratio and driver.whatif_rejected. *)

module Request = Ftes_driver.Request
module Response = Ftes_driver.Response
module Daemon = Ftes_driver.Daemon
module Workload = Ftes_gen.Workload
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Delta = Ftes_whatif.Delta
module Reuse = Ftes_whatif.Reuse
module Sink = Ftes_obs.Sink
module Json = Ftes_util.Json

let registry_cap = 64 (* ftes serve's default --max-problems *)

type kind = Repeat | Cold | Base | Nudge of string | Misc of string

type req = { id : string; kind : kind; line : string }

(* --- the fixed universe of units --- *)

let synthetic ~index ~n_processes =
  let spec =
    Workload.generate_spec ~seed:Synth.population_seed ~index ~n_processes ()
  in
  Workload.problem_of_spec { Workload.ser = 1e-11; hpd = 0.25 } spec

let residents =
  [| `Example "cc"; `Example "fig1"; `Example "fig3";
     `Problem (synthetic ~index:100 ~n_processes:10);
     `Problem (synthetic ~index:101 ~n_processes:10);
     `Problem (synthetic ~index:102 ~n_processes:10) |]

let tdma = Bus.Tdma { slot_ms = 2.0 }

let policies =
  [| (Scheduler.Shared, Bus.Fcfs); (Scheduler.Shared, tdma);
     (Scheduler.Dedicated, Bus.Fcfs); (Scheduler.Dedicated, tdma) |]

let strategies = [| "opt"; "min"; "max" |]

let deltas =
  [| Delta.Deadline_scale 0.97; Delta.Wcet_scale { node = 0; factor = 1.05 };
     Delta.Ser_scale { node = 0; factor = 0.5 }; Delta.Period_scale 1.01;
     Delta.Deadline_scale 1.03; Delta.Kmax_set 10 |]

let ok_exn = function Ok v -> v | Error e -> failwith ("serve-session: " ^ e)

let request ~id ?(strategy = "opt") ?(policy = (Scheduler.Shared, Bus.Fcfs)) command target =
  let slack, bus = policy in
  ok_exn (Request.make ~id ~strategy ~slack ~bus command target)

let line r = Request.to_string r

type universe = {
  repeats : req list list;
  whatifs : req list list;
  colds : req list list;
  miscs : req list list;
}

let universe () =
  let st = Random.State.make [| Synth.population_seed; 7 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let resident_request id =
    request ~id ~strategy:(pick strategies) ~policy:(pick policies) Request.Optimize
      (pick residents)
  in
  let repeats =
    List.init 40 (fun k ->
        let id = Printf.sprintf "r%02d" k in
        [ { id; kind = Repeat; line = line (resident_request id) } ])
  in
  let whatifs =
    List.init 16 (fun k ->
        let base_id = Printf.sprintf "w%02db" k and id = Printf.sprintf "w%02dn" k in
        let base = resident_request base_id in
        let delta =
          List.init (Array.length deltas) (fun j -> deltas.((k + j) mod Array.length deltas))
          |> List.find (fun d -> Result.is_ok (Delta.apply base.Request.problem d))
        in
        let nudge =
          { base with
            Request.id;
            origin = `Base base_id;
            source = "base:" ^ base_id;
            whatif = Some { Request.base_id = Some base_id; delta } }
        in
        [ { id = base_id; kind = Base; line = line base };
          { id; kind = Nudge base_id; line = line nudge } ])
  in
  let colds =
    List.init 8 (fun k ->
        let id = Printf.sprintf "c%02d" k in
        let problem =
          synthetic ~index:(200 + k) ~n_processes:(if k mod 2 = 0 then 20 else 40)
        in
        [ { id;
            kind = Cold;
            line =
              line
                (request ~id ~strategy:strategies.(k mod 3)
                   ~policy:policies.(k mod 4) Request.Optimize (`Problem problem)) } ])
  in
  let pareto eps =
    Request.Pareto { eps; objectives = Ftes_pareto.Objective.all; ref_cost = None }
  in
  let miscs =
    [ ("m0", Request.Analyze, `Example "cc");
      ("m1", Request.Analyze, `Example "fig3");
      ("m2", Request.Analyze, residents.(3));
      ("m3", pareto 0.0, `Example "fig1");
      ("m4", pareto 0.0, `Example "fig3");
      ("m5", pareto 0.5, `Example "cc");
      ("m6", Request.Exact { limit = None }, `Example "fig3");
      ("m7", Request.Exact { limit = None }, `Example "fig1") ]
    |> List.map (fun (id, command, target) ->
           [ { id;
               kind = Misc (Request.command_name command);
               line = line (request ~id command target) } ])
  in
  { repeats; whatifs; colds; miscs }

let blocks = 4

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Session [session] of the run with seed [seed].  Sessions come in
   groups of [blocks] that share one deal: each unit class shuffled and
   dealt evenly over the blocks, then each block shuffled (a what-if
   unit's nudge always follows its base).  The sessions of a group play
   the blocks in rotated orders, so over a group every unit sits once
   in every block position.  Which nudges the registry fill-up rejects,
   and so what a session costs, depends on that position; the rotation
   gives every run the same share of each. *)
let script u ~seed ~session =
  let st = Random.State.make [| seed; session / blocks |] in
  let deal units =
    let a = Array.of_list (shuffle st units) in
    let per = Array.length a / blocks in
    List.init blocks (fun b -> Array.to_list (Array.sub a (b * per) per))
  in
  let classes = List.map deal [ u.repeats; u.whatifs; u.colds; u.miscs ] in
  let dealt =
    Array.init blocks (fun b ->
        shuffle st (List.concat_map (fun per_block -> List.nth per_block b) classes))
  in
  List.init blocks (fun b -> dealt.((b + session) mod blocks)) |> List.concat |> List.concat

(* --- pins --- *)

let rejected_key id = id ^ ":rejected"

let fingerprint r = Ftes_util.Fingerprint.of_string (Response.fingerprint r)

let pins () =
  let u = universe () in
  let caches = Daemon.create_caches ~max_problems:100_000 () in
  let answer ?(caches = caches) r =
    match Daemon.run_lines ~caches ~telemetry:false [ r.line ] with
    | [ resp ] -> fingerprint resp
    | _ -> failwith "serve-session: one response per line"
  in
  List.concat_map
    (fun r ->
      let accepted = (r.id, answer r) in
      match r.kind with
      | Nudge _ ->
          [ accepted; (rejected_key r.id, answer ~caches:(Daemon.create_caches ()) r) ]
      | Repeat | Cold | Base | Misc _ -> [ accepted ])
    (List.concat (List.concat [ u.repeats; u.whatifs; u.colds; u.miscs ]))

(* The registry as the daemon keeps it: every answered optimize
   registers its walk under its id until [registry_cap] walks are held.
   Returns each request's pin key; a nudge whose base is not held
   expects the registry's rejection. *)
let expected_keys reqs =
  let held = Hashtbl.create 128 in
  let register id = if Hashtbl.length held < registry_cap then Hashtbl.replace held id () in
  List.map
    (fun r ->
      match r.kind with
      | Repeat | Cold | Base ->
          register r.id;
          r.id
      | Nudge base ->
          if Hashtbl.mem held base then begin
            register r.id;
            r.id
          end
          else rejected_key r.id
      | Misc _ -> r.id)
    reqs

(* --- one session against the daemon --- *)

type answer = {
  req : req;
  key : string;  (** pin key of the expected answer. *)
  send_ns : int;
  recv_ns : int;
  resp : Response.t;
}

let latency_ms a = float_of_int (a.recv_ns - a.send_ns) /. 1e6

type session = { answers : answer list; alloc_words : float }

let run_session ?obs ~calib ~index reqs =
  let err_path = Proc.out_path (Printf.sprintf "serve-%d.stderr" index) in
  let obs_args =
    match obs with
    | Some (trace, metrics) -> [ "--trace"; trace; "--metrics"; metrics ]
    | None -> []
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Proc.open_out_fd err_path in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ in_r; out_w; err ])
      (fun () ->
        Proc.spawn ~stdin:in_r ~stdout:out_w ~stderr:err
          ([ "serve"; "--batch"; "1" ] @ obs_args))
  in
  let oc = Unix.out_channel_of_descr in_w and ic = Unix.in_channel_of_descr out_r in
  let answers =
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        (try while true do ignore (input_line ic) done with End_of_file -> ());
        close_in_noerr ic;
        ignore (Proc.wait pid))
      (fun () ->
        List.mapi
          (fun k (r, key) ->
            if k mod Calib.ops_per_probe = 0 then Calib.probe calib;
            let send_ns = Proc.now_ns () in
            output_string oc r.line;
            output_char oc '\n';
            flush oc;
            let resp_line = input_line ic in
            let recv_ns = Proc.now_ns () in
            { req = r; key; send_ns; recv_ns; resp = ok_exn (Response.of_string resp_line) })
          (List.combine reqs (expected_keys reqs)))
  in
  { answers; alloc_words = Proc.allocated_words err_path }

(* Sessions until [seconds] are spent (at least one). *)
let sessions ?obs ~calib u ~seed ~first ~seconds =
  let t0 = Proc.now_ns () in
  let rec go i acc =
    if i > first && Proc.seconds_since t0 >= seconds then List.rev acc
    else
      let obs = Option.map (fun f -> f i) obs in
      go (i + 1) ((obs, run_session ?obs ~calib ~index:i (script u ~seed ~session:i)) :: acc)
  in
  go first []

(* --- metrics --- *)

let failed_verdict r =
  match r.Response.verdict with
  | Response.Failed | Response.Lint_failure -> true
  | Response.Feasible | Response.No_solution | Response.Infeasible -> false

let gate pins answers =
  let tally = Gate.tally () in
  List.iter
    (fun a ->
      Gate.check tally pins Catalog.Serve ~key:a.key ~digest:(fingerprint a.resp)
        ~failed_verdict:(failed_verdict a.resp) ~known_defect:(a.key <> a.req.id))
    answers;
  tally

let telemetry a = a.resp.Response.telemetry

let cache_problems a =
  Option.fold ~none:0 ~some:(fun t -> t.Response.cache_problems) (telemetry a)

(* Requests that use a problem/policy bucket, and whether the bucket
   was already resident: the daemon's bucket count did not grow. *)
let bucket_uses (s : session) =
  let _, uses =
    List.fold_left
      (fun (prev, acc) a ->
        let now = cache_problems a in
        let uses_bucket =
          match a.req.kind with
          | Repeat | Cold | Base | Misc "pareto" -> true
          | Nudge _ | Misc _ -> false
        in
        (now, if uses_bucket then (a, now = prev) :: acc else acc))
      (0, []) s.answers
  in
  List.rev uses

let is_nudge a = match a.req.kind with Nudge _ -> true | _ -> false

let inline_kb answers =
  let kb =
    List.filter_map
      (fun a ->
        match a.req.kind with
        | Cold -> Some (float_of_int (String.length a.req.line) /. 1024.0)
        | _ -> None)
      answers
  in
  Stats.ratio (Stats.sum kb) (float_of_int (List.length kb))

let reuse_ratio answers kept dropped =
  let k, d =
    List.fold_left
      (fun (k, d) a ->
        match Option.bind (telemetry a) (fun t -> t.Response.reuse) with
        | Some r -> (k +. float_of_int (kept r), d +. float_of_int (dropped r))
        | None -> (k, d))
      (0.0, 0.0) answers
  in
  Stats.ratio k (k +. d)

(* Request.of_string and Response.to_line, timed in this process on
   one session's traffic; microseconds per KB of wire text. *)
let codec_us_per_kb u answers =
  let problems = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match Request.of_string r.line with
      | Ok req -> Hashtbl.replace problems r.id req.Request.problem
      | Error _ -> ())
    (List.concat (List.concat [ u.repeats; u.whatifs ]));
  let resolve_base id = Hashtbl.find_opt problems id in
  let per_kb texts us = Stats.ratio us (Stats.sum (List.map (fun t -> float_of_int (String.length t) /. 1024.0) texts)) in
  let timed f =
    let t0 = Proc.now_ns () in
    let v = f () in
    (v, float_of_int (Proc.now_ns () - t0) /. 1e3)
  in
  let lines = List.map (fun a -> a.req.line) answers in
  let (), parse_us =
    timed (fun () ->
        List.iter (fun l -> ignore (Sys.opaque_identity (Request.of_string ~resolve_base l))) lines)
  in
  let out, serialize_us =
    timed (fun () -> List.map (fun a -> Response.to_line a.resp) answers)
  in
  let parse = per_kb lines parse_us and serialize = per_kb out serialize_us in
  (parse, serialize)

(* Daemon spans of the traced sessions: each root span belongs to the
   request whose send/receive window contains its start (both processes
   read CLOCK_MONOTONIC); a window's time outside root spans is
   unattributed. *)
let attribute tr (s : session) trace_path =
  let windows = Array.of_list (List.map (fun a -> (a.send_ns, a.recv_ns)) s.answers) in
  let covered = Array.make (Array.length windows) 0 in
  let window_of ns =
    let rec search lo hi =
      if lo > hi then None
      else
        let mid = (lo + hi) / 2 in
        let a, b = windows.(mid) in
        if ns < a then search lo (mid - 1)
        else if ns > b then search (mid + 1) hi
        else Some mid
    in
    search 0 (Array.length windows - 1)
  in
  In_channel.with_open_bin trace_path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l ->
            (match Result.bind (Json.of_string l) Sink.event_of_json with
            | Ok e -> (
                match window_of e.Sink.start_ns with
                | Some w ->
                    Tracing.add tr e;
                    if e.Sink.depth = 0 then covered.(w) <- covered.(w) + e.Sink.dur_ns
                | None -> ())
            | Error _ -> ());
            loop ()
      in
      loop ());
  Array.iteri
    (fun i (a, b) ->
      Tracing.add_unattributed tr ~ns:(float_of_int (b - a - covered.(i))) ~alloc_b:0.0)
    windows

(* Requests per second of summed latency. *)
let rate answers = Stats.rate (List.map latency_ms answers)

let run ~pins ~seed ~seconds ~trace =
  let u = universe () in
  let setup_s =
    Stats.median
      (List.init 9 (fun _ ->
           let t0 = Proc.now_ns () in
           ignore (Sys.opaque_identity (script (universe ()) ~seed ~session:0));
           Proc.seconds_since t0))
    +. Stats.median (List.init 9 (fun _ -> Proc.startup_s ()))
  in
  let timed_seconds = if trace then seconds /. 2.0 else seconds in
  let calib = Calib.create () in
  let untraced = List.map snd (sessions ~calib u ~seed ~first:0 ~seconds:timed_seconds) in
  let answers = List.concat_map (fun s -> s.answers) untraced in
  let n = float_of_int (List.length answers) in
  let ms = List.map latency_ms answers in
  let tail = Stats.tail ms in
  let uses = List.concat_map bucket_uses untraced in
  let warm = List.filter_map (fun (a, w) -> if w then Some (latency_ms a) else None) uses in
  let colds =
    List.filter_map (fun a -> if a.req.kind = Cold then Some (latency_ms a) else None) answers
  in
  let nudges = List.filter is_nudge answers in
  let answered_nudges = List.filter (fun a -> not (failed_verdict a.resp)) nudges in
  let rejected = List.length nudges - List.length answered_nudges in
  let properties =
    [ ("sessions", Json.Number (float_of_int (List.length untraced)));
      ("requests_per_session", Json.Number (float_of_int (List.length (script u ~seed ~session:0))));
      ("warm_bucket_share",
        Json.Number (Stats.ratio (float_of_int (List.length warm)) (float_of_int (List.length uses))));
      ("mean_inline_problem_kb", Json.Number (inline_kb answers));
      ("whatif_sent", Json.Number (float_of_int (List.length nudges)));
      ("whatif_rejected", Json.Number (float_of_int rejected));
      ("registry_cap", Json.Number (float_of_int registry_cap)) ]
  in
  let ops_per_s = rate answers in
  if not trace then begin
    let tally = gate pins answers in
    { Report.workload = Catalog.Serve;
      tally;
      values =
        [ ("setup_s", setup_s);
          ("ops_per_s", ops_per_s);
          ("op_p50_ms", Stats.median ms);
          ("op_tail_ms", tail.Stats.value);
          ("peak_rss_mb", float_of_int (Host.children_maxrss_kb ()) /. 1024.0);
          ("alloc_words_per_op", Stats.sum (List.map (fun s -> s.alloc_words) untraced) /. n);
          ("fail_ratio", Gate.fail_ratio tally);
          ("warm_p50_ms", Stats.median warm);
          ("cold_p50_ms", Stats.median colds);
          ("whatif_p50_ms", Stats.median (List.map latency_ms answered_nudges)) ];
      notes =
        [ ("op_tail_ms", Stats.describe tail);
          ("alloc_words_per_op", "daemon GC words (OCAMLRUNPARAM=v=0x400) per request");
          ("fail_ratio", Printf.sprintf "%d what-if nudges rejected by the full registry" rejected);
          ("warm_p50_ms", Printf.sprintf "%d requests on a resident bucket" (List.length warm));
          ("cold_p50_ms", Printf.sprintf "%d first-seen inline problems" (List.length colds));
          ("whatif_p50_ms", Printf.sprintf "%d nudges answered" (List.length answered_nudges)) ];
      properties;
      breakdown = None;
      calib }
  end
  else begin
    let obs i =
      (Proc.out_path (Printf.sprintf "serve-%d.trace.jsonl" i),
       Proc.out_path (Printf.sprintf "serve-%d.metrics.csv" i))
    in
    let traced = sessions ~obs ~calib u ~seed ~first:(List.length untraced) ~seconds:timed_seconds in
    let tr = Tracing.create () in
    List.iter
      (fun (paths, s) ->
        Option.iter
          (fun (trace_path, _) ->
            attribute tr s trace_path;
            Sys.remove trace_path)
          paths)
      traced;
    let counter =
      Proc.metrics_counters (List.filter_map (fun (paths, _) -> Option.map snd paths) traced)
    in
    let tanswers = List.concat_map (fun (_, s) -> s.answers) traced in
    let tn = float_of_int (List.length tanswers) in
    let count name = float_of_int (Tracing.count tr name) in
    let mean_ns name = Stats.ratio (Tracing.incl_ns tr name) (count name) in
    let parse_us, serialize_us = codec_us_per_kb u (List.hd untraced).answers in
    let overhead_us =
      List.filter_map
        (fun a ->
          Option.map
            (fun t -> float_of_int (a.recv_ns - a.send_ns - t.Response.wall_ns) /. 1e3)
            (telemetry a))
        answers
    in
    let registry_hit_ratio =
      Stats.median
        (List.filter_map
           (fun s ->
             match List.rev s.answers with
             | last :: _ ->
                 Option.map
                   (fun t ->
                     Stats.ratio (float_of_int t.Response.registry_hits)
                       (float_of_int (t.Response.registry_hits + t.Response.registry_misses)))
                   (telemetry last)
             | [] -> None)
           untraced)
    in
    let chrome = Proc.out_path (Printf.sprintf "serve-session-seed%d.trace.json" seed) in
    Tracing.write_chrome tr chrome;
    let op_wall_ms =
      Stats.sum (List.map (fun a -> float_of_int (a.recv_ns - a.send_ns) /. 1e6) tanswers)
    in
    let layers =
      Layers.kernel ~ops:tn ~counter tr
      @ [ ("analyze.preflight_ms", mean_ns "analyze/preflight" /. 1e6);
          ("analyze.pruned_architectures_per_req", Stats.ratio (counter "analyze.pruned_architectures") tn);
          ("pareto.insert_ns", mean_ns "pareto/insert");
          ( "pareto.dominated_ratio",
            Stats.ratio (counter "pareto.dominated")
              (counter "pareto.dominated" +. counter "pareto.inserted") );
          ("bnb.solve_ms_per_req", mean_ns "bnb/solve" /. 1e6);
          ("whatif.sfp_kept_ratio", reuse_ratio answers (fun r -> r.Reuse.sfp_kept) (fun r -> r.Reuse.sfp_dropped));
          ("whatif.evals_kept_ratio", reuse_ratio answers (fun r -> r.Reuse.evals_kept) (fun r -> r.Reuse.evals_dropped));
          ( "whatif.steps_replayed_ratio",
            reuse_ratio answers (fun r -> r.Reuse.steps_replayed)
              (fun r -> r.Reuse.steps_total - r.Reuse.steps_replayed) );
          ("driver.overhead_us_p50", Stats.median overhead_us);
          ("driver.parse_us_per_kb", parse_us);
          ("driver.serialize_us_per_kb", serialize_us);
          ("driver.registry_hit_ratio", registry_hit_ratio);
          ( "driver.whatif_rejected",
            Stats.ratio (float_of_int rejected) (float_of_int (List.length nudges)) );
          ( "obs.tracing_overhead_ratio",
            rate tanswers /. ops_per_s ) ]
    in
    let tally = gate pins (answers @ tanswers) in
    { Report.workload = Catalog.Serve;
      tally;
      values = layers;
      notes = [ ("chrome_trace", chrome) ];
      properties;
      calib;
      breakdown =
        Some
          ("  self time by layer over the traced requests (daemon spans, \
            client windows):\n"
          ^ Tracing.rows_to_text ~op_wall_ms (Tracing.rows tr)) }
  end
