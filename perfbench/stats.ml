(* Order statistics over latency samples. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array. *)
let rank_percentile a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let median samples =
  match sorted samples with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

let mean l = if l = [] then 0.0 else sum l /. float_of_int (List.length l)

(* Each sample replaced by the mean of the samples of its key.  A run
   repeats every key equally often, so the order statistics of the
   result are those of the keys' means, and the gaps between the keys
   of a many-moded population, where a plain median of repeated ops
   would sit on one op's jitter, do not move them.  A mean, not a
   median: the host flips between a fast and a slow state within a
   second, and a mean follows the share of time spent in each smoothly
   where a median of repeated work jumps from one state to the other. *)
let key_means samples =
  let by_key = Hashtbl.create 128 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace by_key k (v :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    samples;
  let means = Hashtbl.create 128 in
  Hashtbl.iter (fun k vs -> Hashtbl.replace means k (mean vs)) by_key;
  List.map (fun (k, _) -> Hashtbl.find means k) samples

(* Ops per second of ops that took [ms] milliseconds each, back to back. *)
let rate ms = if ms = [] then 0.0 else 1000.0 *. float_of_int (List.length ms) /. sum ms

type tail = { percentile : float; value : float; samples : int; beyond : int }

(* The highest percentile of a fixed ladder, up to [top], that still
   has at least ten samples beyond it.  Each workload caps the ladder
   at a rung every full run of it reaches, so the reported percentile
   does not change between runs whose sample counts differ. *)
let ladder = [ 95.0; 90.0; 75.0; 50.0 ]

let tail ?(top = 95.0) samples =
  match sorted samples with
  | [||] -> { percentile = 50.0; value = 0.0; samples = 0; beyond = 0 }
  | a ->
      let n = Array.length a in
      let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      let p =
        match List.find_opt (fun p -> p <= top && beyond p >= 10) ladder with
        | Some p -> p
        | None -> 50.0
      in
      { percentile = p; value = rank_percentile a p; samples = n; beyond = beyond p }

let describe t =
  Printf.sprintf "p%g of %d samples, %d beyond" t.percentile t.samples t.beyond

let ratio num den = if den = 0.0 then 0.0 else num /. den
