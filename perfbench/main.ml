(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe pin        # print the pins of the current code
     main.exe calibrate  # time the host-speed reference (see calib.ml)

   Run from the repository root, after building bin/ftes.exe; see
   perfbench/README.md.  The last line of standard output is the JSON
   result; any error exits non-zero without printing one. *)

open Perfbench

let usage =
  "main.exe --workload synth-cells|serve-session|campaign-shards --seed N \
   --seconds S --trace 0|1 [--ftes PATH]\n\
   main.exe pin\n\
   main.exe calibrate"

let pin () =
  let emit workload entries =
    List.iter
      (fun (key, digest) ->
        Printf.printf "%s %s %s\n%!" (Catalog.workload_name workload) key digest)
      entries
  in
  emit Catalog.Synth (Synth.pins ());
  emit Catalog.Serve (Serve.pins ());
  emit Catalog.Campaign (Campaign.pins ())

let bench ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists !Proc.ftes) then
    failwith (Printf.sprintf "%s not found: build it first" !Proc.ftes);
  let pins = match Gate.load_pins () with Ok p -> p | Error e -> failwith e in
  Proc.ensure_out_dir ();
  let run =
    match workload with
    | Catalog.Synth -> Synth.run
    | Catalog.Serve -> Serve.run
    | Catalog.Campaign -> Campaign.run
  in
  Report.print ~seed ~trace (run ~pins ~seed ~seconds ~trace)

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let mode = ref `Bench in
  let spec =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S seconds to measure");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer traced run");
      ("--ftes", Arg.Set_string Proc.ftes, "PATH the ftes binary") ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv spec
       (function
         | "pin" -> mode := `Pin
         | "calibrate" -> mode := `Calibrate
         | a -> raise (Arg.Bad ("unexpected " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  try
    match !mode with
    | `Pin -> pin ()
    | `Calibrate -> Printf.printf "%.6f\n" (Calib.reference ())
    | `Bench -> (
      match (!workload, !seed, !seconds, !trace) with
      | Some w, Some seed, Some seconds, Some (0 | 1 as t) -> (
          match Catalog.workload_of_name w with
          | Some workload when seconds > 0.0 ->
              bench ~workload ~seed ~seconds ~trace:(t = 1)
          | Some _ -> fail "--seconds must be positive"
          | None -> fail ("unknown workload " ^ w))
      | _ -> fail usage)
  with Failure msg | Sys_error msg -> fail msg
