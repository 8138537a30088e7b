(* Unit and property tests for Ftes_model. *)

module Task_graph = Ftes_model.Task_graph
module Application = Ftes_model.Application
module Platform = Ftes_model.Platform
module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Hardening = Ftes_model.Hardening

let check_float = Alcotest.(check (float 1e-9))

let edge ?(t = 1.0) src dst = { Task_graph.src; dst; transmission_ms = t }

let diamond () =
  Task_graph.make ~n:4 [ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ]

let invalid msg f =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))

(* --- Task_graph --- *)

let test_graph_basic () =
  let g = diamond () in
  Alcotest.(check int) "n" 4 (Task_graph.n g);
  Alcotest.(check int) "edges" 4 (Task_graph.n_edges g);
  Alcotest.(check int) "in_degree sink" 2 (Task_graph.in_degree g 3);
  Alcotest.(check int) "out_degree source" 2 (Task_graph.out_degree g 0);
  Alcotest.(check (list int)) "sources" [ 0 ] (Task_graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Task_graph.sinks g)

let test_graph_validation () =
  invalid "Task_graph.make: edge endpoint out of range" (fun () ->
      Task_graph.make ~n:2 [ edge 0 2 ]);
  invalid "Task_graph.make: self-loop" (fun () ->
      Task_graph.make ~n:2 [ edge 1 1 ]);
  invalid "Task_graph.make: duplicate edge" (fun () ->
      Task_graph.make ~n:2 [ edge 0 1; edge 0 1 ]);
  invalid "Task_graph.make: graph has a cycle" (fun () ->
      Task_graph.make ~n:3 [ edge 0 1; edge 1 2; edge 2 0 ]);
  invalid "Task_graph.make: invalid transmission time" (fun () ->
      Task_graph.make ~n:2 [ edge ~t:(-1.0) 0 1 ]);
  invalid "Task_graph.make: negative process count" (fun () ->
      Task_graph.make ~n:(-1) [])

let test_graph_empty () =
  let g = Task_graph.make ~n:0 [] in
  Alcotest.(check int) "empty graph" 0 (Task_graph.n g);
  Alcotest.(check (list int)) "no sources" [] (Task_graph.sources g)

let test_topological_order () =
  let g = diamond () in
  let order = Task_graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  List.iter
    (fun (e : Task_graph.edge) ->
      Alcotest.(check bool) "edge respects order" true (pos.(e.src) < pos.(e.dst)))
    (Task_graph.edges g)

let test_bottom_levels () =
  let g = diamond () in
  let bl = Task_graph.bottom_levels g ~exec:(fun _ -> 10.0) ~comm:(fun _ -> 1.0) in
  check_float "sink" 10.0 bl.(3);
  check_float "middle" 21.0 bl.(1);
  check_float "source" 32.0 bl.(0)

let test_longest_path () =
  let g = diamond () in
  check_float "critical path length" 32.0
    (Task_graph.longest_path g ~exec:(fun _ -> 10.0) ~comm:(fun _ -> 1.0))

let test_critical_path () =
  let g = Task_graph.make ~n:3 [ edge 0 1; edge 0 2 ] in
  let exec = function 1 -> 5.0 | _ -> 1.0 in
  let path = Task_graph.critical_path g ~exec ~comm:(fun _ -> 0.0) in
  Alcotest.(check (list int)) "heavy branch chosen" [ 0; 1 ] path

let test_critical_path_empty () =
  let g = Task_graph.make ~n:0 [] in
  Alcotest.(check (list int)) "empty graph" []
    (Task_graph.critical_path g ~exec:(fun _ -> 1.0) ~comm:(fun _ -> 0.0))

let test_components () =
  let g = Task_graph.make ~n:5 [ edge 0 1; edge 2 3 ] in
  let comps = Task_graph.components g in
  Alcotest.(check int) "three components" 3 (List.length comps);
  Alcotest.(check (list (list int))) "membership" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (List.map (List.sort compare) comps)

let test_to_dot () =
  let s = Task_graph.to_dot (diamond ()) in
  Helpers.check_contains "dot" s "digraph";
  Helpers.check_contains "dot" s "p0 -> p1"

let prop_bottom_levels_dominate_exec =
  QCheck.Test.make ~count:100 ~name:"bottom level >= own execution time"
    QCheck.(int_bound 1000)
    (fun seed ->
      let prng = Ftes_util.Prng.create seed in
      let g = Ftes_gen.Dag_gen.generate prng (Ftes_gen.Dag_gen.default_params ~n:12) in
      let exec i = 1.0 +. float_of_int (i mod 5) in
      let bl = Task_graph.bottom_levels g ~exec ~comm:(fun _ -> 0.5) in
      let ok = ref true in
      Array.iteri (fun i v -> if v < exec i -. 1e-9 then ok := false) bl;
      (* and the longest path is the largest bottom level *)
      !ok
      && Float.abs
           (Task_graph.longest_path g ~exec ~comm:(fun _ -> 0.5)
           -. Array.fold_left Float.max 0.0 bl)
         < 1e-9)

let prop_topo_valid =
  QCheck.Test.make ~count:100 ~name:"generated DAGs have valid topo order"
    QCheck.(int_bound 1000)
    (fun seed ->
      let prng = Ftes_util.Prng.create seed in
      let g = Ftes_gen.Dag_gen.generate prng (Ftes_gen.Dag_gen.default_params ~n:15) in
      let order = Task_graph.topological_order g in
      let pos = Array.make (Task_graph.n g) 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      List.for_all
        (fun (e : Task_graph.edge) -> pos.(e.src) < pos.(e.dst))
        (Task_graph.edges g))

(* --- Application --- *)

let make_app ?deadline_ms ?gamma ?mu () =
  Application.make ~graph:(diamond ())
    ~deadline_ms:(Option.value ~default:100.0 deadline_ms)
    ~gamma:(Option.value ~default:1e-5 gamma)
    ~recovery_overhead_ms:(Option.value ~default:5.0 mu)
    ()

let test_application_ok () =
  let app = make_app () in
  Alcotest.(check int) "n" 4 (Application.n_processes app);
  Alcotest.(check string) "default names" "P1" (Application.process_name app 0);
  check_float "period defaults to deadline" 100.0 app.Application.period_ms;
  check_float "iterations per hour" 36_000.0 (Application.iterations_per_hour app);
  check_float "goal" (1.0 -. 1e-5) (Application.reliability_goal app)

let test_application_validation () =
  invalid "Application.make: deadline must be positive" (fun () ->
      make_app ~deadline_ms:0.0 ());
  invalid "Application.make: gamma must lie in (0, 1)" (fun () ->
      make_app ~gamma:0.0 ());
  invalid "Application.make: gamma must lie in (0, 1)" (fun () ->
      make_app ~gamma:1.0 ());
  invalid "Application.make: recovery overhead must be non-negative" (fun () ->
      make_app ~mu:(-1.0) ());
  invalid "Application.make: process_names length mismatch" (fun () ->
      Application.make ~graph:(diamond ()) ~process_names:[| "a" |]
        ~deadline_ms:10.0 ~gamma:1e-5 ~recovery_overhead_ms:0.0 ())

let test_application_pp () =
  let s = Format.asprintf "%a" Application.pp (make_app ()) in
  Helpers.check_contains "pp" s "4 processes"

(* --- Hardening --- *)

let test_degradation_schedule () =
  check_float "level 1" 0.01 (Hardening.degradation ~hpd:1.0 ~level:1 ~levels:5);
  check_float "level 2" 0.25 (Hardening.degradation ~hpd:1.0 ~level:2 ~levels:5);
  check_float "level 3" 0.50 (Hardening.degradation ~hpd:1.0 ~level:3 ~levels:5);
  check_float "level 4" 0.75 (Hardening.degradation ~hpd:1.0 ~level:4 ~levels:5);
  check_float "level 5" 1.00 (Hardening.degradation ~hpd:1.0 ~level:5 ~levels:5);
  check_float "HPD 5% top level" 0.05
    (Hardening.degradation ~hpd:0.05 ~level:5 ~levels:5)

let test_degradation_validation () =
  invalid "Hardening.degradation: level out of range" (fun () ->
      Hardening.degradation ~hpd:0.1 ~level:0 ~levels:5);
  invalid "Hardening.degradation: level out of range" (fun () ->
      Hardening.degradation ~hpd:0.1 ~level:6 ~levels:5);
  invalid "Hardening.degradation: invalid HPD" (fun () ->
      Hardening.degradation ~hpd:(-0.1) ~level:1 ~levels:5)

let test_sfp_reduction () =
  check_float "level 1 no reduction" 1.0 (Hardening.sfp_reduction ~factor:100.0 ~level:1);
  check_float "level 3" 1e-4 (Hardening.sfp_reduction ~factor:100.0 ~level:3)

let test_cost_models () =
  check_float "linear" 15.0 (Hardening.linear_cost ~base:5.0 ~level:3);
  check_float "doubling" 64.0 (Hardening.doubling_cost ~base:16.0 ~level:3)

(* --- Platform --- *)

let hv level cost p =
  Platform.hversion ~level ~cost ~wcet_ms:[| 10.0; 20.0 |] ~pfail:[| p; p |]

let test_platform_node () =
  let nt =
    Platform.node_type ~name:"N" ~versions:[| hv 1 10.0 1e-3; hv 2 20.0 1e-5 |]
  in
  Alcotest.(check int) "levels" 2 (Platform.levels nt);
  Alcotest.(check int) "procs" 2 (Platform.n_processes nt);
  check_float "mean wcet" 15.0 (Platform.mean_wcet nt ~level:1);
  check_float "version lookup" 20.0 (Platform.version nt ~level:2).Platform.cost

let test_platform_validation () =
  invalid "Platform.hversion: cost must be positive" (fun () -> hv 1 0.0 1e-3);
  invalid "Platform.hversion: failure probability must be in [0,1)" (fun () ->
      hv 1 1.0 1.0);
  invalid "Platform.hversion: wcet/pfail table size mismatch" (fun () ->
      Platform.hversion ~level:1 ~cost:1.0 ~wcet_ms:[| 1.0 |] ~pfail:[||]);
  invalid "Platform.hversion: WCET must be positive" (fun () ->
      Platform.hversion ~level:1 ~cost:1.0 ~wcet_ms:[| 0.0 |] ~pfail:[| 0.1 |]);
  invalid "Platform.node_type: node needs at least one h-version" (fun () ->
      Platform.node_type ~name:"N" ~versions:[||]);
  invalid "Platform.node_type: levels must be consecutive from 1" (fun () ->
      Platform.node_type ~name:"N" ~versions:[| hv 2 10.0 1e-3 |]);
  invalid "Platform.node_type: cost must increase with hardening" (fun () ->
      Platform.node_type ~name:"N" ~versions:[| hv 1 10.0 1e-3; hv 2 10.0 1e-5 |]);
  invalid
    "Platform.node_type: failure probability must not increase with hardening"
    (fun () ->
      Platform.node_type ~name:"N" ~versions:[| hv 1 10.0 1e-5; hv 2 20.0 1e-3 |]);
  invalid "Platform.version: level out of range" (fun () ->
      Platform.version
        (Platform.node_type ~name:"N" ~versions:[| hv 1 10.0 1e-3 |])
        ~level:2)

(* --- Problem --- *)

let fig1 () = Ftes_cc.Fig_examples.fig1_problem ()

let test_problem_accessors () =
  let p = fig1 () in
  Alcotest.(check int) "library" 2 (Problem.n_library p);
  Alcotest.(check int) "processes" 4 (Problem.n_processes p);
  Alcotest.(check int) "levels" 3 (Problem.levels p 0);
  check_float "wcet table" 75.0 (Problem.wcet p ~node:0 ~level:2 ~proc:0);
  check_float "pfail table" 1.3e-5 (Problem.pfail p ~node:1 ~level:2 ~proc:3);
  check_float "cost" 40.0 (Problem.cost p ~node:1 ~level:2);
  check_float "min cost" 16.0 (Problem.min_cost p ~node:0)

let test_problem_validation () =
  let app = make_app () in
  invalid "Problem.make: empty node library" (fun () ->
      Problem.make ~app ~library:[||]);
  let wrong = Platform.node_type ~name:"N" ~versions:[| hv 1 10.0 1e-3 |] in
  invalid "Problem.make: node tables do not match the application" (fun () ->
      Problem.make ~app ~library:[| wrong |])

let test_problem_node_bounds () =
  invalid "Problem.node: library index out of range" (fun () ->
      Problem.node (fig1 ()) 5)

(* --- Design --- *)

let test_design_ok () =
  let p = fig1 () in
  let d = Ftes_cc.Fig_examples.fig4a p in
  Alcotest.(check int) "members" 2 (Design.n_members d);
  check_float "cost 72" 72.0 (Design.cost p d);
  Alcotest.(check (list int)) "procs on N1" [ 0; 1 ] (Design.procs_on d ~member:0);
  Alcotest.(check (list int)) "procs on N2" [ 2; 3 ] (Design.procs_on d ~member:1);
  check_float "wcet via design" 75.0 (Design.wcet p d ~proc:0);
  check_float "pfail via design" 1.2e-5 (Design.pfail p d ~proc:0);
  Alcotest.(check (array (float 0.0))) "pfail vector N2" [| 1.2e-5; 1.3e-5 |]
    (Design.pfail_vector p d ~member:1)

let test_design_validation () =
  let p = fig1 () in
  let mk ~members ~levels ~reexecs ~mapping () =
    Design.make p ~members ~levels ~reexecs ~mapping
  in
  invalid "Design.make: empty architecture" (fun () ->
      mk ~members:[||] ~levels:[||] ~reexecs:[||] ~mapping:[| 0; 0; 0; 0 |] ());
  invalid "Design.make: member index out of library range" (fun () ->
      mk ~members:[| 7 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
        ~mapping:[| 0; 0; 0; 0 |] ());
  invalid "Design.make: node selected twice" (fun () ->
      mk ~members:[| 0; 0 |] ~levels:[| 1; 1 |] ~reexecs:[| 0; 0 |]
        ~mapping:[| 0; 0; 0; 0 |] ());
  invalid "Design.make: hardening level out of range" (fun () ->
      mk ~members:[| 0 |] ~levels:[| 4 |] ~reexecs:[| 0 |]
        ~mapping:[| 0; 0; 0; 0 |] ());
  invalid "Design.make: negative re-execution count" (fun () ->
      mk ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| -1 |]
        ~mapping:[| 0; 0; 0; 0 |] ());
  invalid "Design.make: mapping target out of architecture range" (fun () ->
      mk ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |]
        ~mapping:[| 0; 0; 1; 0 |] ());
  invalid "Design.make: mapping length mismatch" (fun () ->
      mk ~members:[| 0 |] ~levels:[| 1 |] ~reexecs:[| 0 |] ~mapping:[| 0 |] ())

let test_design_updates () =
  let p = fig1 () in
  let d = Ftes_cc.Fig_examples.fig4a p in
  let d2 = Design.with_levels d [| 3; 3 |] in
  check_float "updated cost" 144.0 (Design.cost p d2);
  let d3 = Design.with_reexecs d [| 5; 5 |] in
  Alcotest.(check int) "updated k" 5 d3.Design.reexecs.(0);
  let d4 = Design.with_mapping d [| 1; 1; 1; 1 |] in
  Alcotest.(check (list int)) "remapped" [ 0; 1; 2; 3 ]
    (Design.procs_on d4 ~member:1);
  Alcotest.(check int) "original k unchanged" 1 d.Design.reexecs.(0)

let test_design_validate_result () =
  let p = fig1 () in
  let d = Ftes_cc.Fig_examples.fig4a p in
  Alcotest.(check bool) "valid design" true (Design.validate p d = Ok ())

(* --- Problem_io --- *)

module Problem_io = Ftes_model.Problem_io
module Codec = Ftes_util.Codec

(* Structural equality through the printed bytes: every table entry,
   tiny probabilities included (printed with 17 digits), survives. *)
let test_io_roundtrip_fig1 () = Helpers.roundtrip Problem_io.codec (fig1 ())

let test_io_roundtrip_cc () =
  Helpers.roundtrip Problem_io.codec (Ftes_cc.Cruise_control.problem ())

let test_io_roundtrip_generated () =
  Helpers.roundtrip Problem_io.codec (Helpers.synthetic_problem ~n:15 ())

let test_io_save_load () =
  let path = Filename.temp_file "ftes" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Problem_io.save path (fig1 ());
      match Problem_io.load path with
      | Ok p -> Alcotest.(check int) "loaded" 4 (Problem.n_processes p)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_io_missing_file () =
  Alcotest.(check bool) "missing file is an Error" true
    (Result.is_error (Problem_io.load "/nonexistent/ftes.json"))

let test_io_rejects_invalid () =
  let reject label text =
    match Codec.of_string Problem_io.codec text with
    | Ok _ -> Alcotest.failf "%s should be rejected" label
    | Error _ -> ()
  in
  reject "not json" "not json at all";
  reject "missing fields" "{}";
  reject "wrong types" {|{"application": 5, "library": []}|};
  (* Structurally valid JSON but semantically broken: cost does not
     increase with hardening. *)
  let p = fig1 () in
  let text = Codec.to_string Problem_io.codec p in
  let replace_once ~affix ~by s =
    let n = String.length s and m = String.length affix in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = affix then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.failf "fixture does not contain %S" affix
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
  in
  let broken = replace_once ~affix:"\"cost\": 32" ~by:"\"cost\": 1" text in
  reject "non-monotone costs" broken

(* --- schema versioning --- *)

module Json = Ftes_util.Json

let strip_version json =
  match json with
  | Json.Object fields ->
      Json.Object (List.filter (fun (k, _) -> k <> "schema_version") fields)
  | other -> other

let with_version v json =
  match strip_version json with
  | Json.Object fields ->
      Json.Object (("schema_version", Json.Number (float_of_int v)) :: fields)
  | other -> other

let test_io_writes_version () =
  match Json.member "schema_version" (Problem_io.to_json (fig1 ())) with
  | Ok (Json.Number v) ->
      Alcotest.(check int) "written version" Problem_io.schema_version
        (int_of_float v)
  | _ -> Alcotest.fail "exported document has no schema_version"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_io_versionless_warns () =
  let doc = strip_version (Problem_io.to_json (fig1 ())) in
  let warnings = ref [] in
  let on_warning w = warnings := w :: !warnings in
  match Codec.decode ~on_warning Problem_io.codec doc with
  | Error e -> Alcotest.failf "versionless v0 document rejected: %s" e
  | Ok p ->
      Alcotest.(check int) "payload read" 4 (Problem.n_processes p);
      Alcotest.(check int) "exactly one warning" 1 (List.length !warnings);
      Alcotest.(check bool) "warning names schema_version" true
        (List.exists (contains ~needle:"schema_version") !warnings)

let test_io_v1_silent () =
  let doc = Problem_io.to_json (fig1 ()) in
  let warnings = ref [] in
  let on_warning w = warnings := w :: !warnings in
  match Codec.decode ~on_warning Problem_io.codec doc with
  | Error e -> Alcotest.failf "v1 rejected: %s" e
  | Ok _ -> Alcotest.(check int) "no warnings for v1" 0 (List.length !warnings)

let test_io_rejects_future_version () =
  let doc = with_version 99 (Problem_io.to_json (fig1 ())) in
  match Codec.decode ~on_warning:ignore Problem_io.codec doc with
  | Ok _ -> Alcotest.fail "schema_version 99 should be rejected"
  | Error e ->
      Alcotest.(check bool) "diagnostic names the version" true
        (contains ~needle:"99" e)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ftes_model"
    [ ( "task_graph",
        [ Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "empty" `Quick test_graph_empty;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "bottom levels" `Quick test_bottom_levels;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "critical path empty" `Quick test_critical_path_empty;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "dot export" `Quick test_to_dot;
          q prop_topo_valid;
          q prop_bottom_levels_dominate_exec ] );
      ( "application",
        [ Alcotest.test_case "construction" `Quick test_application_ok;
          Alcotest.test_case "validation" `Quick test_application_validation;
          Alcotest.test_case "pp" `Quick test_application_pp ] );
      ( "hardening",
        [ Alcotest.test_case "degradation schedule" `Quick test_degradation_schedule;
          Alcotest.test_case "degradation validation" `Quick test_degradation_validation;
          Alcotest.test_case "sfp reduction" `Quick test_sfp_reduction;
          Alcotest.test_case "cost models" `Quick test_cost_models ] );
      ( "platform",
        [ Alcotest.test_case "node type" `Quick test_platform_node;
          Alcotest.test_case "validation" `Quick test_platform_validation ] );
      ( "problem",
        [ Alcotest.test_case "accessors" `Quick test_problem_accessors;
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "node bounds" `Quick test_problem_node_bounds ] );
      ( "design",
        [ Alcotest.test_case "construction" `Quick test_design_ok;
          Alcotest.test_case "validation" `Quick test_design_validation;
          Alcotest.test_case "functional updates" `Quick test_design_updates;
          Alcotest.test_case "validate result" `Quick test_design_validate_result ] );
      ( "problem_io",
        [ Alcotest.test_case "roundtrip fig1" `Quick test_io_roundtrip_fig1;
          Alcotest.test_case "roundtrip cruise controller" `Quick
            test_io_roundtrip_cc;
          Alcotest.test_case "roundtrip generated" `Quick
            test_io_roundtrip_generated;
          Alcotest.test_case "save and load" `Quick test_io_save_load;
          Alcotest.test_case "missing file" `Quick test_io_missing_file;
          Alcotest.test_case "rejects invalid input" `Quick
            test_io_rejects_invalid;
          Alcotest.test_case "writes schema_version" `Quick
            test_io_writes_version;
          Alcotest.test_case "versionless v0 warns" `Quick
            test_io_versionless_warns;
          Alcotest.test_case "v1 reads silently" `Quick test_io_v1_silent;
          Alcotest.test_case "future version rejected" `Quick
            test_io_rejects_future_version ] ) ]
