(* The closest-join kernel over Dewey numbers, as the engine ran it before
   it ran on ids and the parent column ([Xmutil.Closest]): the reference
   the id kernel is checked against.  Rows are document-ordered arrays of
   Dewey numbers, e.g. the instances of one type. *)

open Xmutil

(* The maximal common prefix over all cross pairs, in one merge pass: for
   [x <= y <= z] in document order [common_prefix_len x z <=
   common_prefix_len y z], so the maximum is reached at a pair adjacent in
   the merged order. *)
let closest_level (a : Dewey.t array) (b : Dewey.t array) =
  let na = Array.length a and nb = Array.length b in
  let best = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    best := max !best (Dewey.common_prefix_len a.(!i) b.(!j));
    if Dewey.compare a.(!i) b.(!j) <= 0 then incr i else incr j
  done;
  !best

let same_prefix level (a : Dewey.t) (b : Dewey.t) =
  Array.length a >= level && Array.length b >= level
  && Dewey.common_prefix_len a b >= level

(* The maximal runs [[start, stop)] of consecutive entries sharing their
   first [level] components; an entry shorter than [level] is a run of its
   own. *)
let runs ~level (ds : Dewey.t array) =
  let out = ref [] and start = ref 0 in
  for i = 1 to Array.length ds do
    if i = Array.length ds || not (same_prefix level ds.(i - 1) ds.(i)) then begin
      out := (!start, i) :: !out;
      start := i
    end
  done;
  Array.of_list (List.rev !out)

(* The first [l] components of [a] and [b], compared lexicographically. *)
let compare_prefix l (a : Dewey.t) (b : Dewey.t) =
  Dewey.compare (Array.sub a 0 l) (Array.sub b 0 l)

(* The first run whose [level]-prefix is not below [d]'s, by bisection. *)
let bisect_run ~level ds runs d =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_prefix level ds.(fst runs.(mid)) d < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length runs)

(* [bisect_run]'s answer when it is at or after [lo], by a forward scan. *)
let seek_run ~level ds runs d lo =
  let rec go g =
    if g < Array.length runs && compare_prefix level ds.(fst runs.(g)) d < 0 then go (g + 1)
    else g
  in
  go lo

(* Per parent (ascending), the run sharing its [level]-prefix, or -1. *)
let parent_runs ~level ds runs parents =
  let g = ref 0 in
  Array.mapi
    (fun k pd ->
      g := if k = 0 then bisect_run ~level ds runs pd else seek_run ~level ds runs pd !g;
      if !g < Array.length runs && compare_prefix level ds.(fst runs.(!g)) pd = 0 then !g
      else -1)
    parents

(* The Dewey numbers indexing gives a collection, in preorder: document [i]
   is rooted at [i + 1], and a node's [k]th child (attributes first, text
   skipped) at its own number extended by [k]. *)
let number (trees : Xml.Tree.t list) =
  let out = ref [] in
  let rec element d = function
    | Xml.Tree.Text _ -> ()
    | Xml.Tree.Element { attrs; children; _ } ->
        out := d :: !out;
        List.iteri (fun k _ -> out := Dewey.child d (k + 1) :: !out) attrs;
        let k = ref (List.length attrs) in
        List.iter
          (function
            | Xml.Tree.Text _ -> ()
            | child ->
                incr k;
                element (Dewey.child d !k) child)
          children
  in
  List.iteri (fun i t -> element [| i + 1 |] t) trees;
  Array.of_list (List.rev !out)
