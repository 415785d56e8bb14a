type id = int

(* Types as columns by id, filled in first-interned order.  The element
   children of a type, and apart from them its attribute children, form
   one chain each in first-interned order: slot [2 * (ty + 1)] holds the
   element chain of type [ty], the slot after it the attribute chain, and
   the root types are the element chain of type -1.  A lookup scans its
   slot's chain comparing labels physically first (the parser shares a
   name within a parse, and generators use literals), then by content.  A
   chain longer than [wide] types is looked up in a hash table instead, so
   that a type with thousands of child types still interns and finds in
   constant time. *)
type t = {
  mutable count : int;
  mutable components : string array;
  mutable labels : string array;  (* components without the "@" *)
  mutable parents : int array;  (* -1 for roots *)
  mutable depths : int array;
  mutable next : int array;  (* the next type of the same chain, or -1 *)
  mutable first : int array;  (* by slot: the chain's first type, or -1 *)
  mutable last : int array;  (* by slot: the chain's last type *)
  mutable width : int array;  (* by slot: the chain's length *)
  tables : (int, (string, id) Hashtbl.t) Hashtbl.t;  (* by slot, once wide *)
}

let wide = 16

let create () =
  { count = 0; components = [||]; labels = [||]; parents = [||]; depths = [||];
    next = [||]; first = [| -1; -1 |]; last = [| -1; -1 |]; width = [| 0; 0 |];
    tables = Hashtbl.create 1 }

let slot ~parent ~attr = (2 * (parent + 1)) + if attr then 1 else 0

let rec find_physical labels next name c =
  if c < 0 || labels.(c) == name then c else find_physical labels next name next.(c)

let rec find_equal labels next name c =
  if c < 0 || String.equal labels.(c) name then c else find_equal labels next name next.(c)

let find_child t ~parent ~attr name =
  let s = slot ~parent ~attr in
  if t.width.(s) > wide then
    match Hashtbl.find (Hashtbl.find t.tables s) name with c -> c | exception Not_found -> -1
  else
    let c = find_physical t.labels t.next name t.first.(s) in
    if c >= 0 then c else find_equal t.labels t.next name t.first.(s)

(* [a] copied into an array [n] long, filled with [x]. *)
let grow a n x =
  let b = Array.make n x in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_child t ~parent ~attr name =
  if parent < -1 || parent >= t.count then invalid_arg "Type_table.add_child";
  let c = t.count in
  if c = Array.length t.components then begin
    let n = Int.max 8 (2 * c) in
    t.components <- grow t.components n "";
    t.labels <- grow t.labels n "";
    t.parents <- grow t.parents n (-1);
    t.depths <- grow t.depths n 0;
    t.next <- grow t.next n (-1);
    t.first <- grow t.first (2 * (n + 1)) (-1);
    t.last <- grow t.last (2 * (n + 1)) (-1);
    t.width <- grow t.width (2 * (n + 1)) 0
  end;
  t.components.(c) <- (if attr then "@" ^ name else name);
  t.labels.(c) <- name;
  t.parents.(c) <- parent;
  t.depths.(c) <- (if parent < 0 then 1 else t.depths.(parent) + 1);
  t.count <- c + 1;
  let s = slot ~parent ~attr in
  if t.first.(s) < 0 then t.first.(s) <- c else t.next.(t.last.(s)) <- c;
  t.last.(s) <- c;
  let w = t.width.(s) + 1 in
  t.width.(s) <- w;
  if w = wide + 1 then begin
    let tbl = Hashtbl.create (4 * wide) in
    let rec add c = if c >= 0 then (Hashtbl.add tbl t.labels.(c) c; add t.next.(c)) in
    add t.first.(s);
    Hashtbl.add t.tables s tbl
  end
  else if w > wide then Hashtbl.add (Hashtbl.find t.tables s) name c;
  c

let find t ~parent comp =
  let attr = Label.is_attribute comp in
  let name = if attr then Label.strip_at comp else comp in
  match parent with
  | Some p when p < 0 || p >= t.count -> None
  | _ -> (
      match find_child t ~parent:(Option.value parent ~default:(-1)) ~attr name with
      | -1 -> None
      | id -> Some id)

let intern t ~parent comp =
  let parent = Option.value parent ~default:(-1) and attr = Label.is_attribute comp in
  let name = if attr then Label.strip_at comp else comp in
  if parent < -1 || parent >= t.count then invalid_arg "Type_table.intern";
  match find_child t ~parent ~attr name with
  | -1 -> add_child t ~parent ~attr name
  | id -> id

let count t = t.count

let check t id = if id < 0 || id >= t.count then invalid_arg "Type_table: no such type"

let get a t id =
  check t id;
  a.(id)

let component t id = get t.components t id

let label t id = get t.labels t id

let is_attribute t id = Label.is_attribute (component t id)

let parent t id =
  let p = get t.parents t id in
  if p = -1 then None else Some p

let depth t id = get t.depths t id

let path t id =
  let rec go acc id =
    let acc = component t id :: acc in
    match parent t id with None -> acc | Some p -> go acc p
  in
  go [] id

let qname t id = String.concat "." (path t id)

let ancestor_at t ty l =
  let d = depth t ty in
  if l < 1 || l > d then invalid_arg "Type_table.ancestor_at";
  let rec up ty d = if d = l then ty else up t.parents.(ty) (d - 1) in
  up ty d

let lca_depth t a b =
  let da = depth t a and db = depth t b in
  let rec up ty d target = if d = target then ty else up t.parents.(ty) (d - 1) target in
  let d0 = min da db in
  let a' = up a da d0 and b' = up b db d0 in
  let rec go a b d =
    if a = b then d
    else if d = 1 then 0
    else go t.parents.(a) t.parents.(b) (d - 1)
  in
  if a' = b' then d0 else go a' b' d0

let type_distance t a b = depth t a + depth t b - (2 * lca_depth t a b)

(* The element and the attribute chain merged by id, which is
   first-interned order. *)
let children t id =
  let rec chain c = if c < 0 then [] else c :: chain t.next.(c) in
  let rec merge a b =
    if a < 0 then chain b
    else if b < 0 then chain a
    else if a < b then a :: merge t.next.(a) b
    else b :: merge a t.next.(b)
  in
  check t id;
  merge t.first.(slot ~parent:id ~attr:false) t.first.(slot ~parent:id ~attr:true)

let iter t f =
  for i = 0 to count t - 1 do
    f i
  done
