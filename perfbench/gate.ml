(* The correctness gate: every op's result digest is compared with the
   digest pinned from the seed commit in pins.txt.  A mismatch, an op
   with no pin, or an error verdict that is not a known defect's pinned
   answer counts as a failed op.  An error answer that is the pinned
   answer of a known defect is the seed commit's result: it is counted
   apart as a known defect, and it stays visible in fail_ratio. *)

type pins = (string, string) Hashtbl.t

let pins_file = "perfbench/pins.txt"

let pin_key workload key = Catalog.workload_name workload ^ " " ^ key

(* One pin per line: "<workload> <key> <digest>". *)
let parse_pins text =
  let pins = Hashtbl.create 512 in
  let rec go = function
    | [] -> Ok pins
    | line :: rest -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "" ] -> go rest
        | [ workload; key; digest ] ->
            Hashtbl.replace pins (workload ^ " " ^ key) digest;
            go rest
        | _ -> Error (Printf.sprintf "%s: malformed line %S" pins_file line))
  in
  go (String.split_on_char '\n' text)

let load_pins () =
  match In_channel.with_open_bin pins_file In_channel.input_all with
  | text -> parse_pins text
  | exception Sys_error e -> Error e

let expected pins workload key = Hashtbl.find_opt pins (pin_key workload key)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable known_defects : int;
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

let tally () =
  { attempted = 0; failed = 0; known_defects = 0; mismatches = 0; first_mismatch = None }

(* Account one op.  [failed_verdict] marks an op the program answered
   with an error or lint-failure verdict; [known_defect] marks a key
   whose pin is such an answer, given by a known defect. *)
let check ?(known_defect = false) t pins workload ~key ~digest ~failed_verdict =
  t.attempted <- t.attempted + 1;
  let matches = expected pins workload key = Some digest in
  if not matches then begin
    t.mismatches <- t.mismatches + 1;
    if t.first_mismatch = None then
      t.first_mismatch <-
        Some
          (Printf.sprintf "%s: got %s, pinned %s" key digest
             (Option.value ~default:"nothing" (expected pins workload key)))
  end;
  if (not matches) || (failed_verdict && not known_defect) then t.failed <- t.failed + 1
  else if failed_verdict then t.known_defects <- t.known_defects + 1

let correct t = t.failed = 0 && t.attempted > 0

(* Ops answered with an error verdict or a wrong result, known defects
   included. *)
let fail_ratio t =
  if t.attempted = 0 then 0.0
  else float_of_int (t.failed + t.known_defects) /. float_of_int t.attempted
