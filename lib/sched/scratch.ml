(* Per-domain scratch arrays for the scheduler hot path.  One arena per
   domain (no locking), grown geometrically and never shrunk; a nested
   acquisition on the same domain falls back to a throwaway arena so
   re-entrancy can never alias live scratch. *)

let n_float_slots = 10

let n_int_slots = 2

type t = {
  mutable busy : bool;
  floats : float array array;
  ints : int array array;
}

let create () =
  { busy = false;
    floats = Array.make n_float_slots [||];
    ints = Array.make n_int_slots [||] }

let key = Domain.DLS.new_key create

let acquire () =
  let arena = Domain.DLS.get key in
  if arena.busy then create ()
  else begin
    arena.busy <- true;
    arena
  end

(* A throwaway arena is never busy, so clearing the flag only ever
   releases the domain's own arena. *)
let release arena = arena.busy <- false

let rounded n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Returned arrays are at least [n] long and carry stale contents —
   callers fill the prefix they use. *)

let floats t ~slot ~n =
  if Array.length t.floats.(slot) < n then
    t.floats.(slot) <- Array.make (rounded n) 0.0;
  t.floats.(slot)

let ints t ~slot ~n =
  if Array.length t.ints.(slot) < n then
    t.ints.(slot) <- Array.make (rounded n) 0;
  t.ints.(slot)
