(* Where and on what a record was measured. *)

external self_maxrss_kb : unit -> int = "perfbench_self_maxrss_kb"

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

let nproc () = Domain.recommended_domain_count ()

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Some (String.trim text)
  | exception Sys_error _ -> None

(* The commit of a git checkout, read from .git without running git;
   "none" in a plain source tree. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> (
          match read_file (Filename.concat ".git" ref_) with
          | Some rev -> rev
          | None -> (
              match read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun line ->
                         match String.split_on_char ' ' line with
                         | [ rev; r ] when r = ref_ -> Some rev
                         | _ -> None)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

(* Fingerprint of the program's sources (lib/ and bin/), which names
   the measured code even where there is no git history. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let path = Filename.concat dir e in
               if Sys.is_directory path then files path
               else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
                       || Filename.check_suffix e ".c" || e = "dune"
               then [ path ]
               else [])
    | exception Sys_error _ -> []
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun path ->
      Buffer.add_string buf path;
      Option.iter (Buffer.add_string buf) (read_file path))
    (files "lib" @ files "bin");
  Ftes_util.Fingerprint.of_string (Buffer.contents buf)

let metadata () =
  let open Ftes_util.Json in
  Object
    [ ("nproc", Number (float_of_int (nproc ())));
      ("ocaml", String Sys.ocaml_version);
      ("git_rev", String (git_rev ()));
      ("source_digest", String (source_digest ())) ]
