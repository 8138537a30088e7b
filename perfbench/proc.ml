(* Running the ftes binary as a subprocess and reading what it leaves
   behind: exit status, wall time, and the GC statistics the OCaml
   runtime prints at exit under OCAMLRUNPARAM=v=0x400. *)

let ftes = ref "_build/default/bin/ftes.exe"

let out_dir = "_perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let out_path name = Filename.concat out_dir name

let now_ns = Ftes_obs.Clock.now_ns

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 14 && String.sub kv 0 14 = "OCAMLRUNPARAM="))
  |> List.cons "OCAMLRUNPARAM=v=0x400"
  |> Array.of_list

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let spawn ~stdin ~stdout ~stderr args =
  Unix.create_process_env !ftes (Array.of_list (!ftes :: args)) (env ()) stdin
    stdout stderr

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Run to completion with stdin at EOF, stdout and stderr to files. *)
let run ~stdout_path ~stderr_path args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out = open_out_fd stdout_path and err = open_out_fd stderr_path in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ null; out; err ])
      (fun () -> spawn ~stdin:null ~stdout:out ~stderr:err args)
  in
  wait pid

let read_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> String.split_on_char '\n' text
  | exception Sys_error _ -> []

(* Sum of the "allocated_words: N" lines a v=0x400 runtime prints at
   exit, one per process that wrote to the file. *)
let allocated_words path =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "allocated_words"; n ] -> (
          match float_of_string_opt (String.trim n) with
          | Some w -> acc +. w
          | None -> acc)
      | _ -> acc)
    0.0 (read_lines path)

(* Process start-up: spawn ftes serve with stdin at EOF and wait for it
   to exit. *)
let startup_s () =
  let t0 = now_ns () in
  let code =
    run ~stdout_path:"/dev/null" ~stderr_path:"/dev/null" [ "serve"; "--batch"; "1" ]
  in
  if code <> 0 then failwith (Printf.sprintf "ftes serve exited %d on empty input" code);
  seconds_since t0

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_kb path =
  match Unix.stat path with
  | st -> float_of_int st.Unix.st_size /. 1024.0
  | exception Unix.Unix_error _ -> 0.0

(* Children's CPU seconds (user + system) so far, descendants included
   once waited for. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Counters of --metrics CSV snapshots ("kind,name,value,..."), summed
   over the files. *)
let metrics_counters paths =
  let tbl = Hashtbl.create 64 in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
  List.iter
    (fun line ->
      match String.split_on_char ',' line with
      | "counter" :: name :: value :: _ -> (
          match float_of_string_opt value with
          | Some v -> Hashtbl.replace tbl name (get name +. v)
          | None -> ())
      | _ -> ())
    (List.concat_map read_lines paths);
  get
