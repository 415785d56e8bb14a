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
   [caml_compare] call and no closure per comparison. *)
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

(* Ids are preorder ranks, so the ancestors of [i] are [parent.(i)],
   [parent.(parent.(i))], ...: one climb counts them, a second fills the
   number in from its last component. *)
let of_ranks ~(parent : int array) ~(rank : int array) i =
  let rec depth i n = if i < 0 then n else depth parent.(i) (n + 1) in
  let d = Array.make (depth i 0) 0 in
  let rec fill i k =
    if k >= 0 then begin
      d.(k) <- rank.(i);
      fill parent.(i) (k - 1)
    end
  in
  fill i (Array.length d - 1);
  d

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
