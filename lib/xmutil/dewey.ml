type t = int array

let root = [| 1 |]

let child d i =
  let n = Array.length d in
  let r = Array.make (n + 1) 0 in
  Array.blit d 0 r 0 n;
  r.(n) <- i;
  r

let level = Array.length

(* Monomorphic int loops with every operand passed explicitly: no
   [caml_compare] call and no closure per comparison.  The join kernel
   runs these once per probe. *)
let rec compare_from (a : t) (b : t) i =
  if i >= Array.length a then if i >= Array.length b then 0 else -1
  else if i >= Array.length b then 1
  else
    let x = a.(i) and y = b.(i) in
    if x < y then -1 else if x > y then 1 else compare_from a b (i + 1)

let compare a b = compare_from a b 0

let equal a b = compare a b = 0

let rec prefix_from (a : t) (b : t) n i =
  if i < n && a.(i) = b.(i) then prefix_from a b n (i + 1) else i

let common_prefix_len a b =
  let la = Array.length a and lb = Array.length b in
  prefix_from a b (if la < lb then la else lb) 0

let is_prefix p d =
  Array.length p <= Array.length d && common_prefix_len p d = Array.length p

let prefix d l =
  if l < 1 || l > Array.length d then invalid_arg "Dewey.prefix";
  Array.sub d 0 l

let distance a b =
  let cp = common_prefix_len a b in
  Array.length a + Array.length b - (2 * cp)

(* The closest level of two document-ordered arrays (Def. 2): the maximal
   common prefix over all cross pairs.  For [x <= y <= z] in document
   order [common_prefix_len x z <= common_prefix_len y z], so the maximum
   is reached at a pair adjacent in the merged order.  One merge pass
   meets every such pair: each element is compared, before it is passed,
   with the first element of the other array not below it. *)
let closest_level (a : t array) (b : t array) =
  let na = Array.length a and nb = Array.length b in
  let best = ref 0 in
  let consider x y =
    let cp = common_prefix_len x y in
    if cp > !best then best := cp
  in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    consider a.(!i) b.(!j);
    if compare a.(!i) b.(!j) <= 0 then incr i else incr j
  done;
  !best

(* Whether [a] and [b] share their first [level] components. *)
let same_prefix level (a : t) (b : t) =
  Array.length a >= level && Array.length b >= level && prefix_from a b level 0 = level

let runs ~level (ds : t array) =
  let n = Array.length ds in
  (* One pass counts the runs, a second fills them in. *)
  let count = ref (Int.min n 1) in
  for i = 1 to n - 1 do
    if not (same_prefix level ds.(i - 1) ds.(i)) then incr count
  done;
  let g = Array.make !count (0, 0) in
  let start = ref 0 and r = ref 0 in
  for i = 1 to n do
    if i = n || not (same_prefix level ds.(i - 1) ds.(i)) then begin
      g.(!r) <- (!start, i);
      incr r;
      start := i
    end
  done;
  g

let rec compare_prefix_from l (a : t) (b : t) i =
  if i >= l then 0
  else
    let x = a.(i) and y = b.(i) in
    if x < y then -1 else if x > y then 1 else compare_prefix_from l a b (i + 1)

let compare_prefix l a b = compare_prefix_from l a b 0

(* The first run in [[lo, hi)] whose [l]-prefix is not below [d]'s.  The
   gallop probes [lo + 1], [lo + 2], [lo + 4], ... until one is not below
   [d], then bisects the last gap. *)
let rec bisect_in l (ds : t array) (runs : (int * int) array) d lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if compare_prefix l ds.(fst runs.(mid)) d < 0 then bisect_in l ds runs d (mid + 1) hi
    else bisect_in l ds runs d lo mid

let bisect_run ~level ds runs d = bisect_in level ds runs d 0 (Array.length runs)

let rec gallop_run l ds runs d prev step hi =
  let q = prev + step in
  if q < hi && compare_prefix l ds.(fst runs.(q)) d < 0 then
    gallop_run l ds runs d q (2 * step) hi
  else bisect_in l ds runs d (prev + 1) (Int.min hi (q + 1))

let seek_run ~level ds runs d lo =
  let hi = Array.length runs in
  if lo >= hi || compare_prefix level ds.(fst runs.(lo)) d >= 0 then lo
  else gallop_run level ds runs d lo 1 hi

let to_string d =
  String.concat "." (Array.to_list (Array.map string_of_int d))

let of_string s =
  if s = "" then invalid_arg "Dewey.of_string";
  let parts = String.split_on_char '.' s in
  let ints =
    List.map
      (fun p ->
        match int_of_string_opt p with
        | Some i when i >= 1 -> i
        | _ -> invalid_arg "Dewey.of_string")
      parts
  in
  Array.of_list ints

let pp fmt d = Format.pp_print_string fmt (to_string d)
