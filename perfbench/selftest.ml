(* The benchmark's own tests: the correctness gate counts a planted
   result mismatch as a failed op, the pins cover every op of every
   workload, the printer emits every named metric with its unit on every
   workload it applies to, and BENCHMARK.json agrees with the catalog. *)

open Perfbench
module Json = Ftes_util.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let pins () =
  match Gate.parse_pins (read "pins.txt") with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* --- the gate --- *)

let planted_mismatch () =
  let pins = pins () in
  let ops = Synth.build_ops () in
  let solution = Synth.solve ops.(0) in
  let first = Hashtbl.create 1 in
  Hashtbl.replace first 0 solution;
  let sample = { Synth.op = 0; ms = 1.0; words = 1.0; digest = Synth.digest solution } in
  let clean = Synth.gate pins ops first [ sample; sample ] in
  Alcotest.(check int) "pinned results pass" 0 clean.Gate.failed;
  Alcotest.(check bool) "correct" true (Gate.correct clean);
  Hashtbl.replace pins (Gate.pin_key Catalog.Synth ops.(0).Synth.key) "0000000000000000";
  let planted = Synth.gate pins ops first [ sample; sample ] in
  Alcotest.(check int) "planted mismatch fails every op" 2 planted.Gate.failed;
  Alcotest.(check int) "counted as mismatches" 2 planted.Gate.mismatches;
  Alcotest.(check bool) "not correct" false (Gate.correct planted);
  Alcotest.(check (float 0.0)) "fail_ratio" 1.0 (Gate.fail_ratio planted);
  let result =
    { Report.workload = Catalog.Synth; tally = planted; notes = []; properties = [];
      breakdown = None; calib = Calib.create ();
      values = List.map (fun (m : Catalog.metric) -> (m.Catalog.name, 1.0)) Catalog.all }
  in
  match Report.final_json ~trace:false result with
  | Json.Object fields ->
      Alcotest.(check bool) "result line says incorrect" true
        (List.assoc "correct" fields = Json.Bool false);
      Alcotest.(check bool) "result line counts the failures" true
        (List.assoc "failed" fields = Json.Number 2.0)
  | _ -> Alcotest.fail "result line is not an object"

let known_failure_stays_correct () =
  let pins =
    match Gate.parse_pins "serve-session a 1111\nserve-session b:rejected 2222\n" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let t = Gate.tally () in
  Gate.check t pins Catalog.Serve ~key:"a" ~digest:"1111" ~failed_verdict:false;
  Gate.check t pins Catalog.Serve ~key:"b:rejected" ~digest:"2222" ~failed_verdict:true
    ~known_defect:true;
  Alcotest.(check int) "the pinned defect is not a failed op" 0 t.Gate.failed;
  Alcotest.(check int) "it is a known defect" 1 t.Gate.known_defects;
  Alcotest.(check (float 0.0)) "visible in fail_ratio" 0.5 (Gate.fail_ratio t);
  Alcotest.(check bool) "and the seed commit's result" true (Gate.correct t);
  Gate.check t pins Catalog.Serve ~key:"a" ~digest:"1111" ~failed_verdict:true;
  Alcotest.(check int) "an error that is no known defect fails" 1 t.Gate.failed;
  Alcotest.(check bool) "and makes the run incorrect" false (Gate.correct t);
  let t = Gate.tally () in
  Gate.check t pins Catalog.Serve ~key:"missing" ~digest:"3333" ~failed_verdict:false;
  Alcotest.(check bool) "an unpinned op is a mismatch" false (Gate.correct t);
  Alcotest.(check int) "and a failed op" 1 t.Gate.failed

let pins_cover_every_op () =
  let pins = pins () in
  let has w key =
    if Gate.expected pins w key = None then
      Alcotest.failf "no pin for %s %s" (Catalog.workload_name w) key
  in
  Array.iter (fun op -> has Catalog.Synth op.Synth.key) (Synth.build_ops ());
  let u = Serve.universe () in
  List.iter
    (fun (r : Serve.req) ->
      has Catalog.Serve r.Serve.id;
      match r.Serve.kind with
      | Serve.Nudge _ -> has Catalog.Serve (Serve.rejected_key r.Serve.id)
      | _ -> ())
    (List.concat (List.concat [ u.Serve.repeats; u.Serve.whatifs; u.Serve.colds; u.Serve.miscs ]));
  has Catalog.Campaign Campaign.pin_key

(* Past the 64th registered walk, the session's nudges expect the
   registry's rejection. *)
let session_shows_registry_defect () =
  let u = Serve.universe () in
  let script = Serve.script u ~seed:5 ~session:0 in
  let keys = Serve.expected_keys script in
  let rejected =
    List.filter (fun k -> Filename.check_suffix k ":rejected") keys
  in
  let optimizes =
    List.filter
      (fun (r : Serve.req) ->
        match r.Serve.kind with Serve.Misc _ -> false | _ -> true)
      script
  in
  Alcotest.(check bool) "more than 64 optimize requests" true (List.length optimizes > 64);
  Alcotest.(check bool) "some nudges expect rejection" true (rejected <> [])

(* --- the printer --- *)

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let printer_emits_every_metric () =
  List.iter
    (fun w ->
      let result =
        { Report.workload = w; tally = Gate.tally (); notes = []; properties = [];
          breakdown = None; calib = Calib.create ();
          values = List.map (fun (m : Catalog.metric) -> (m.Catalog.name, 1.5)) Catalog.all }
      in
      List.iter
        (fun trace ->
          let lines = Report.human_lines ~trace result in
          let metrics = if trace then Catalog.per_layer else Catalog.end_to_end in
          List.iter
            (fun (m : Catalog.metric) ->
              if List.mem w m.Catalog.applies then
                if
                  not
                    (List.exists
                       (fun l -> has_sub l (m.Catalog.name ^ " ") && has_sub l (" " ^ m.Catalog.unit_ ^ " "))
                       lines)
                then
                  Alcotest.failf "%s: %s not printed with its unit" (Catalog.workload_name w)
                    m.Catalog.name)
            metrics;
          match Report.final_json ~trace result with
          | Json.Object fields -> (
              match List.assoc "metrics" fields with
              | Json.Object ms ->
                  let expected = if trace then Catalog.per_layer else Catalog.gated in
                  Alcotest.(check (list string))
                    "result line metrics"
                    (List.map (fun (m : Catalog.metric) -> m.Catalog.name) expected)
                    (List.map fst ms);
                  List.iter2
                    (fun (m : Catalog.metric) (_, v) ->
                      Alcotest.(check bool) (m.Catalog.name ^ " unit") true
                        (Json.member "unit" v = Ok (Json.String m.Catalog.unit_)))
                    expected ms
              | _ -> Alcotest.fail "metrics is not an object")
          | _ -> Alcotest.fail "result line is not an object")
        [ false; true ])
    Catalog.workloads

let missing_metric_is_an_error () =
  let result =
    { Report.workload = Catalog.Serve; tally = Gate.tally (); notes = []; properties = [];
      breakdown = None; calib = Calib.create (); values = [ ("setup_s", 1.0) ] }
  in
  match Report.final_json ~trace:false result with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a workload that omits a gated metric must not print a result"

(* On a host twice as slow as nominal, end-to-end times halve and rates
   double; counts, sizes and per-layer figures are reported as read. *)
let host_scaling () =
  let calib = { Calib.probes = [ 1.5 *. Calib.nominal_ms; 2.5 *. Calib.nominal_ms ] } in
  let r =
    { Report.workload = Catalog.Synth; tally = Gate.tally (); notes = []; properties = [];
      breakdown = None; calib;
      values = List.map (fun (m : Catalog.metric) -> (m.Catalog.name, 8.0)) Catalog.all }
  in
  let check name expected =
    Alcotest.(check (option (float 1e-9))) name (Some expected) (Report.value r name)
  in
  check "setup_s" 4.0;
  check "op_p50_ms" 4.0;
  check "op_tail_ms" 4.0;
  check "ops_per_s" 16.0;
  check "peak_rss_mb" 8.0;
  check "alloc_words_per_op" 8.0;
  check "sched.schedule_ns" 8.0

(* --- BENCHMARK.json --- *)

let benchmark_json_matches_catalog () =
  let json =
    match Json.of_string (read "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let get k = match Json.member k json with Ok v -> v | Error e -> Alcotest.fail e in
  let list k = match Json.to_list (get k) with Ok l -> l | Error e -> Alcotest.fail e in
  let str k v =
    match Result.bind (Json.member k v) Json.to_string_value with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "workloads"
    (List.map Catalog.workload_name Catalog.workloads)
    (List.map (str "name") (list "workloads"));
  List.iter
    (fun w ->
      match Catalog.workload_of_name (str "name" w) with
      | Some wl -> Alcotest.(check string) "why" (Catalog.why wl) (str "why" w)
      | None -> Alcotest.fail "unknown workload")
    (list "workloads");
  let check_metrics key expected =
    let entries = list key in
    Alcotest.(check (list string)) key
      (List.map (fun (m : Catalog.metric) -> m.Catalog.name) expected)
      (List.map (str "name") entries);
    List.iter2
      (fun (m : Catalog.metric) e ->
        Alcotest.(check string) (m.Catalog.name ^ " unit") m.Catalog.unit_ (str "unit" e);
        Alcotest.(check string) (m.Catalog.name ^ " better")
          (Catalog.better_name m.Catalog.better) (str "better" e))
      expected entries
  in
  check_metrics "end_to_end" Catalog.gated;
  check_metrics "per_layer" Catalog.per_layer;
  List.iter
    (fun e ->
      match Result.bind (Json.member "bound" e) Json.to_float with
      | Ok b -> Alcotest.(check bool) "bound in (0, 0.25]" true (b > 0.0 && b <= 0.25)
      | Error e -> Alcotest.fail e)
    (list "end_to_end")

(* --- order statistics --- *)

let tail_has_ten_beyond () =
  List.iter
    (fun n ->
      let t = Stats.tail (List.init n float_of_int) in
      if n >= 20 then Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (t.Stats.beyond >= 10))
    [ 20; 45; 99; 100; 384; 1000; 20000 ];
  Alcotest.(check (float 0.0)) "median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (list (float 0.0))) "key means" [ 4.0; 5.0; 4.0; 4.0; 5.0 ]
    (Stats.key_means [ (0, 1.0); (1, 5.0); (0, 2.0); (0, 9.0); (1, 5.0) ]);
  Alcotest.(check (float 1e-9)) "rate" 20.0 (Stats.rate [ 50.0; 25.0; 75.0 ])

let () =
  Alcotest.run "perfbench"
    [ ( "gate",
        [ Alcotest.test_case "planted mismatch" `Quick planted_mismatch;
          Alcotest.test_case "known failure" `Quick known_failure_stays_correct;
          Alcotest.test_case "pins cover every op" `Quick pins_cover_every_op;
          Alcotest.test_case "registry defect visible" `Quick session_shows_registry_defect ] );
      ( "printer",
        [ Alcotest.test_case "every metric with its unit" `Quick printer_emits_every_metric;
          Alcotest.test_case "missing metric" `Quick missing_metric_is_an_error;
          Alcotest.test_case "host scaling" `Quick host_scaling;
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json_matches_catalog ] );
      ("stats", [ Alcotest.test_case "tail" `Quick tail_has_ten_beyond ]) ]
