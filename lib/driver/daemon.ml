module Json = Ftes_util.Json
module Config = Ftes_core.Config
module Redundancy_opt = Ftes_core.Redundancy_opt
module Design_strategy = Ftes_core.Design_strategy
module Problem_io = Ftes_model.Problem_io
module Scheduler = Ftes_sched.Scheduler
module Bus = Ftes_sched.Bus
module Pool = Ftes_par.Pool
module Keyed_cache = Ftes_par.Keyed_cache
module Sfp_cache = Ftes_par.Sfp_cache
module Clock = Ftes_obs.Clock

(* --- shared evaluation caches --- *)

let c_registry_hits = Ftes_obs.Metrics.counter "serve.registry_hits"

let c_registry_misses = Ftes_obs.Metrics.counter "serve.registry_misses"

type caches = {
  evals : (string, Redundancy_opt.cache) Keyed_cache.t;
  recorded : (string, Design_strategy.recorded) Keyed_cache.t;
      (* recorded optimize walks by request id — the base registry
         what-if requests warm-start from via "base_id". *)
}

let registry_event = function
  | `Hit -> Ftes_obs.Metrics.incr c_registry_hits
  | `Miss -> Ftes_obs.Metrics.incr c_registry_misses
  | `Drop -> ()

let create_caches ?(max_problems = 64) () =
  { evals = Keyed_cache.create ~max_entries:max_problems ();
    recorded =
      Keyed_cache.create ~max_entries:max_problems ~on_event:registry_event ()
  }

let cache_problems t = Keyed_cache.length t.evals

let cache_hits t = Keyed_cache.hits t.evals

let cache_misses t = Keyed_cache.misses t.evals

let registry_hits t = Keyed_cache.hits t.recorded

let registry_misses t = Keyed_cache.misses t.recorded

(* A Redundancy_opt.cache may be shared by runs over the same problem
   whose configs agree except in the hardening policy, so the bucket
   key is (problem, slack, bus, kmax) with the strategy excluded.  The
   problem travels as its minified v1 document — inline and built-in
   spellings of the same instance land in the same bucket. *)
let bucket_key (req : Request.t) =
  let config = req.Request.config in
  let slack =
    match config.Config.slack with
    | Scheduler.Shared -> Some "shared"
    | Scheduler.Conservative -> Some "conservative"
    | Scheduler.Dedicated -> Some "dedicated"
    | Scheduler.Per_process _ | Scheduler.Checkpointed _ ->
        (* Not wire-reachable; never share rather than mis-share. *)
        None
  in
  Option.map
    (fun slack ->
      let bus =
        match config.Config.bus with
        | Bus.Fcfs -> "fcfs"
        | Bus.Tdma { slot_ms } -> Printf.sprintf "tdma:%h" slot_ms
      in
      Printf.sprintf "%s|%s|%d|%s" slack bus config.Config.kmax
        (Json.to_string ~minify:true (Problem_io.to_json req.Request.problem)))
    slack

let shared_cache caches (req : Request.t) =
  match caches with
  | None -> None
  | Some t -> (
      match req.Request.command with
      | Request.Analyze | Request.Exact _ ->
          (* No candidate evaluations to share. *)
          None
      | Request.Optimize | Request.Pareto _ ->
          Option.map
            (fun key ->
              Keyed_cache.find_or_add t.evals key (fun () ->
                  Redundancy_opt.create_cache ()))
            (bucket_key req))

(* --- one batch --- *)

let best_effort_id line =
  match Json.of_string line with
  | Error _ -> ""
  | Ok json -> (
      match Result.bind (Json.member "id" json) Json.to_string_value with
      | Ok id -> id
      | Error _ -> "")

let execute ?caches ~enqueued_ns line =
  let started_ns = Clock.now_ns () in
  (* One counted registry probe per distinct base_id per request,
     shared between parse-time problem resolution and exec-time base
     resolution — a problem-less "base_id" request costs one lookup,
     not two. *)
  let lookup =
    Option.map
      (fun t ->
        let memo = ref [] in
        fun id ->
          match List.assoc_opt id !memo with
          | Some r -> r
          | None ->
              let r = Keyed_cache.find_opt t.recorded id in
              memo := (id, r) :: !memo;
              r)
      caches
  in
  let resolve_base =
    Option.map
      (fun find id ->
        Option.map (fun r -> r.Design_strategy.rec_problem) (find id))
      lookup
  in
  let id, verdict, payload, error, warm =
    match Request.of_string ~on_warning:ignore ?resolve_base line with
    | Error msg ->
        (best_effort_id line, Response.Failed, Json.Object [], Some msg, None)
    | Ok req -> (
        match
          Exec.run ?cache:(shared_cache caches req) ?recorded_of:lookup req
        with
        | exception Exec.Rejected msg ->
            (req.Request.id, Response.Failed, Json.Object [], Some msg, None)
        | exception Ftes_bnb.Bnb.Budget_exhausted n ->
            ( req.Request.id,
              Response.Failed,
              Json.Object [],
              Some
                (Printf.sprintf
                   "candidate budget exhausted after %d full evaluations \
                    (raise the limit); no optimality claim is made"
                   n),
              None )
        | exception exn ->
            ( req.Request.id,
              Response.Failed,
              Json.Object [],
              Some (Printexc.to_string exn),
              None )
        | outcome ->
            let warm =
              match outcome with
              | Exec.Optimized { recorded; reuse; _ } -> Some (recorded, reuse)
              | _ -> None
            in
            ( req.Request.id,
              Exec.verdict outcome,
              Exec.payload req outcome,
              None,
              warm ))
  in
  let finished_ns = Clock.now_ns () in
  ( id,
    verdict,
    payload,
    error,
    started_ns - enqueued_ns,
    finished_ns - started_ns,
    warm )

let run_lines ?pool ?caches ?(telemetry = true) ?(first_seq = 0) lines =
  let enqueued_ns = Clock.now_ns () in
  let executed = Pool.map ?pool (execute ?caches ~enqueued_ns) lines in
  (* Register this batch's recorded optimize walks, sequentially and
     in request order, only after the whole batch executed: a request
     naming a same-batch base_id therefore fails deterministically,
     whatever pool schedule ran the batch.  First registration wins,
     so a duplicated request id cannot retarget an existing base. *)
  (match caches with
  | None -> ()
  | Some t ->
      List.iter
        (fun (id, _, _, _, _, _, warm) ->
          match warm with
          | Some (Some recorded, _) when id <> "" ->
              ignore
                (Keyed_cache.find_or_add t.recorded id (fun () -> recorded))
          | _ -> ())
        executed);
  (* One batch-end sample of the process-wide counters for every batch
     member: completion order under the pool is unobservable, and the
     counters stay monotone in seq across batches because they only
     ever grow.  The registry is sampled after the registrations above
     for the same reason. *)
  let sample =
    if not telemetry then fun _ _ _ -> None
    else begin
      let totals = Sfp_cache.totals () in
      let evals = Redundancy_opt.eval_stats () in
      let problems =
        match caches with Some t -> cache_problems t | None -> 0
      in
      let reg_hits, reg_misses =
        match caches with
        | Some t -> (registry_hits t, registry_misses t)
        | None -> (0, 0)
      in
      fun queue_wait_ns wall_ns reuse ->
        Some
          { Response.queue_wait_ns = max 0 queue_wait_ns;
            wall_ns = max 0 wall_ns;
            sfp_hits = totals.Sfp_cache.total_hits;
            sfp_misses = totals.Sfp_cache.total_misses;
            eval_hits = evals.Redundancy_opt.hits;
            eval_misses = evals.Redundancy_opt.misses;
            cache_problems = problems;
            registry_hits = reg_hits;
            registry_misses = reg_misses;
            reuse }
    end
  in
  List.mapi
    (fun i (id, verdict, payload, error, queue_wait_ns, wall_ns, warm) ->
      let reuse = match warm with Some (_, reuse) -> reuse | None -> None in
      { Response.id;
        seq = first_seq + i;
        verdict;
        payload;
        error;
        telemetry = sample queue_wait_ns wall_ns reuse })
    executed

(* --- the loop --- *)

type stats = { requests : int; failed : int; batches : int }

(* Request lines are read from the channel's descriptor directly: a
   batch takes only the lines already received, and [Unix.select] can
   see what the descriptor holds but not what an [in_channel] has
   buffered.  [lines] holds the complete lines received, [partial] the
   bytes after the last newline. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  lines : string Queue.t;
  partial : Buffer.t;
  mutable eof : bool;
}

let reader ic =
  { fd = Unix.descr_of_in_channel ic;
    chunk = Bytes.create 65536;
    lines = Queue.create ();
    partial = Buffer.create 4096;
    eof = false }

(* One blocking read of whatever the descriptor holds, split at
   newlines; at end of input an unterminated tail is a last line, as
   with [input_line]. *)
let fill r =
  let end_line () =
    Queue.push (Buffer.contents r.partial) r.lines;
    Buffer.clear r.partial
  in
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 ->
      r.eof <- true;
      if Buffer.length r.partial > 0 then end_line ()
  | n ->
      let rec split pos =
        match Bytes.index_from_opt r.chunk pos '\n' with
        | Some i when i < n ->
            Buffer.add_subbytes r.partial r.chunk pos (i - pos);
            end_line ();
            split (i + 1)
        | Some _ | None -> Buffer.add_subbytes r.partial r.chunk pos (n - pos)
      in
      split 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let take_line r = Queue.take_opt r.lines

let rec next_line r =
  match take_line r with
  | Some _ as line -> line
  | None ->
      if r.eof then None
      else begin
        fill r;
        next_line r
      end

let readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ :: _, _, _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* A line that is available without waiting: already received, or
   completed by bytes the descriptor holds right now. *)
let rec ready_line r =
  match take_line r with
  | Some _ as line -> line
  | None ->
      if r.eof || not (readable_now r.fd) then None
      else begin
        fill r;
        ready_line r
      end

(* Block for the first line only, then take further lines while they
   are already there, up to [n]: a closed-loop client that waits for
   each answer is served a batch of one. *)
let read_batch r n =
  match next_line r with
  | None -> []
  | Some first ->
      let rec more acc n =
        if n = 0 then List.rev acc
        else
          match ready_line r with
          | None -> List.rev acc
          | Some line -> more (line :: acc) (n - 1)
      in
      more [ first ] (n - 1)

let serve ?pool ?caches ?telemetry ?(max_batch = 16) ic oc =
  if max_batch < 1 then invalid_arg "Daemon.serve: max_batch must be positive";
  let input = reader ic in
  let rec loop stats seq =
    match read_batch input max_batch with
    | [] -> stats
    | lines ->
        let responses =
          run_lines ?pool ?caches ?telemetry ~first_seq:seq lines
        in
        List.iter
          (fun r ->
            output_string oc (Response.to_line r);
            output_char oc '\n')
          responses;
        flush oc;
        let failures =
          List.length
            (List.filter
               (fun r -> r.Response.verdict = Response.Failed)
               responses)
        in
        loop
          { requests = stats.requests + List.length responses;
            failed = stats.failed + failures;
            batches = stats.batches + 1 }
          (seq + List.length responses)
  in
  loop { requests = 0; failed = 0; batches = 0 } 0

(* --- self-test --- *)

let audit ?pool ?caches () =
  let req ?whatif id command example =
    match Request.make ~id ?whatif command (`Example example) with
    | Ok r -> Request.to_string r
    | Error e -> failwith ("Daemon.audit: " ^ e)
  in
  let lines =
    [ req "audit-analyze" Request.Analyze "fig1";
      req "audit-optimize" Request.Optimize "cc";
      req "audit-pareto"
        (Request.Pareto
           { eps = 0.0;
             objectives = Ftes_pareto.Objective.all;
             ref_cost = None })
        "fig1";
      (* A one-shot what-if (no base_id: cold base walk plus warm
         rerun in the same request) so the audited stream exercises
         the whatif/* rules. *)
      req "audit-whatif"
        ~whatif:
          { Request.base_id = None;
            delta = Ftes_whatif.Delta.Deadline_scale 0.95 }
        Request.Optimize "fig1";
      (* A deliberately malformed line: the audited stream must show
         the daemon answering garbage with a structured error. *)
      "{\"schema_version\": 1, \"id\": \"audit-bad\", \"command\": \
       \"frobnicate\", \"example\": \"fig1\"}" ]
  in
  let responses = run_lines ?pool ?caches lines in
  (* Audit the actual wire bytes, not the in-memory values: re-parse
     each emitted line as the serve rules will see it. *)
  let envelopes =
    List.map
      (fun r ->
        match Json.of_string (Response.to_line r) with
        | Ok json -> json
        | Error e -> failwith ("Daemon.audit: unparseable response: " ^ e))
      responses
  in
  let subject =
    Ftes_verify.Subject.with_responses
      (Ftes_verify.Subject.of_problem (Ftes_cc.Fig_examples.fig1_problem ()))
      envelopes
  in
  ( responses,
    Ftes_verify.Verify.run
      ~rules:(Ftes_verify.Serve_rules.all @ Ftes_verify.Whatif_rules.all)
      subject )
