(* FNV-style fold over every element: the generic polymorphic hash
   samples only a prefix of the structure, and memo keys share long
   prefixes across thousands of entries. *)
let hash h (arr : int array) =
  let h = ref h in
  for i = 0 to Array.length arr - 1 do
    h := (!h * 0x01000193) lxor (arr.(i) + 1)
  done;
  !h

let equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
  go 0
