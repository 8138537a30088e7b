(* Host speed.  The benchmark runs on a share of a machine whose speed
   drifts: the same work can take 1.8 times as long from one half hour
   to the next, which no bound on raw times could absorb.  A fixed
   reference workload, run in a fresh process between the timed ops,
   measures that speed, and every end-to-end time and rate is scaled to
   a host on which the reference takes [nominal_ms].  Host drift moves
   the reference and the measured work alike and cancels; a change to
   ftes moves only the measured work, in full.  The reference is this
   file's own code and calls nothing of ftes, and its own process keeps
   ftes's heap out of its timing. *)

let nominal_ms = 40.0

(* Probes come every [ops_per_probe] ops, so that a run's many probes
   sample the host's speed through the whole run. *)
let ops_per_probe = 12

(* Integer mixing, scattered reads over an 8 MB array and short-lived
   allocation through a hash table, lists and a sort: the kinds of work
   the optimizer does, in fixed amounts.  Returns milliseconds. *)
let reference () =
  let n = 1 lsl 20 in
  (* i -> i * odd mod 2^20 is a permutation, so the walk below reads
     the whole array in an order the prefetcher cannot follow. *)
  let a = Array.init n (fun i -> (i * 2654435761) land (n - 1)) in
  let t0 = Proc.now_ns () in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 250_000 do
    j := a.(!j) lxor (!acc land 7);
    acc := !acc + !j
  done;
  let h = Hashtbl.create 1024 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (i land 0xffff) (float_of_int i, [ i; !acc ])
  done;
  let l = List.init 25_000 (fun i -> (i * 7919) lxor !acc land 0xfffff) in
  let sorted = List.sort compare l in
  ignore (Sys.opaque_identity (Hashtbl.length h, sorted));
  float_of_int (Proc.now_ns () - t0) /. 1e6

(* One probe: `main.exe calibrate`, which times [reference], in a fresh
   process. *)
let probe_ms () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "calibrate" |] in
  let line = Fun.protect ~finally:(fun () -> ignore (Unix.close_process_in ic)) (fun () -> input_line ic) in
  match float_of_string_opt (String.trim line) with
  | Some ms when ms > 0.0 -> ms
  | _ -> failwith ("calibrate printed " ^ line)

type t = { mutable probes : float list }

let create () = { probes = [] }

let probe t = t.probes <- probe_ms () :: t.probes

(* How much slower than nominal the host ran: the mean probe over
   [nominal_ms].  Single probes fall in the host's fast or slow state;
   their mean, like the time of a run's ops, follows the share of each. *)
let slowdown t = if t.probes = [] then 1.0 else Stats.mean t.probes /. nominal_ms
