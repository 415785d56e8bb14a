open Xmutil

type kind = Element | Attribute

type node = {
  id : int;
  dewey : Dewey.t;
  kind : kind;
  name : string;
  type_id : Type_table.id;
  parent : int;
  children : int array;
  value : string;
}

(* A node table: one row per node id, held as columns allocated once at the
   document's exact size.  Node [i]'s children are
   [kids.(kid_start.(i)) .. kids.(kid_start.(i + 1) - 1)]; a node's name
   and kind follow from its type. *)
type t = {
  types : Type_table.t;
  parent : int array;
  type_id : int array;
  rank : int array;
      (* 1-based rank among the parent's children, attributes first; a
         root's is its document's 1-based index.  With [parent] it gives
         each node's Dewey number ([Dewey.of_ranks]). *)
  value : string array;
  kid_start : int array;
  kids : int array;
  by_type : int array array;
  roots : int list;
}

(* An element's value: its text children concatenated; a single text
   child's string is shared, not copied. *)
let rec text_value = function
  | [] -> ""
  | Tree.Element _ :: rest -> text_value rest
  | Tree.Text s :: rest -> ( match text_value rest with "" -> s | more -> s ^ more)

let of_forest trees =
  Xmobs.Obs.phase "xml.index" @@ fun () ->
  let types = Type_table.create () in
  let total = List.fold_left (fun n t -> n + Tree.count_nodes t) 0 trees in
  let parent = Array.make total (-1) and type_id = Array.make total 0 in
  let rank = Array.make total 0 and value = Array.make total "" in
  let kid_start = Array.make (total + 1) 0 and kids = Array.make (total - List.length trees) 0 in
  (* Child types by raw name, two tables per parent type, one of its
     element children and one of its attributes: [Type_table.intern] runs
     once per new type, so ids keep their first-visit order.  As no element
     name begins with "@", a name missing from its table is a new type.  A
     table is made at its type's first child of its kind: until then the
     type shares the empty [no_children] (most types are leaves, and a
     table takes 22 words however few it holds). *)
  let no_children = Hashtbl.create 1 and root_types = Hashtbl.create 2 in
  let elements = Vec.create () and attributes = Vec.create () in
  let intern tables parent name ~attr =
    let tbl = if parent < 0 then root_types else Vec.get tables parent in
    match Hashtbl.find tbl name with
    | ty -> ty
    | exception Not_found ->
        if (not attr) && String.starts_with ~prefix:"@" name then
          invalid_arg ("Doc.of_forest: element name begins with @: " ^ name);
        let ty =
          Type_table.intern types
            ~parent:(if parent < 0 then None else Some parent)
            (if attr then "@" ^ name else name)
        in
        ignore (Vec.push elements no_children);
        ignore (Vec.push attributes no_children);
        let tbl =
          if tbl != no_children then tbl
          else begin
            let t = Hashtbl.create 8 in
            Vec.set tables parent t;
            t
          end
        in
        Hashtbl.add tbl name ty;
        ty
  in
  (* Ids are preorder ranks.  A node's run of [kids] is reserved when it is
     numbered, so runs lie in id order. *)
  let next_id = ref 0 and next_kid = ref 0 in
  let add p ty r v =
    let id = !next_id in
    next_id := id + 1;
    parent.(id) <- p; type_id.(id) <- ty; rank.(id) <- r; value.(id) <- v;
    kid_start.(id) <- !next_kid;
    id
  in
  (* The loops over attributes and children are functions of this one
     recursive group, not per-element closures. *)
  let rec index_element parent_id parent_ty r el =
    match el with
    | Tree.Text _ -> assert false
    | Tree.Element { name; attrs; children } ->
        let ty = intern elements parent_ty name ~attr:false in
        let id = add parent_id ty r (text_value children) in
        let start = !next_kid in
        next_kid :=
          List.fold_left (fun n -> function Tree.Element _ -> n + 1 | Tree.Text _ -> n)
            (start + List.length attrs) children;
        let k = index_attrs id ty start 0 attrs in
        index_children id ty start k children;
        id
  and index_attrs id ty start k = function
    | [] -> k
    | (name, v) :: rest ->
        kids.(start + k) <- add id (intern attributes ty name ~attr:true) (k + 1) v;
        index_attrs id ty start (k + 1) rest
  and index_children id ty start k = function
    | [] -> ()
    | Tree.Text _ :: rest -> index_children id ty start k rest
    | (Tree.Element _ as child) :: rest ->
        kids.(start + k) <- index_element id ty (k + 1) child;
        index_children id ty start (k + 1) rest
  in
  let roots = List.mapi (fun i -> index_element (-1) (-1) (i + 1)) trees in
  kid_start.(total) <- !next_kid;
  let counts = Array.make (Type_table.count types) 0 in
  Array.iter (fun ty -> counts.(ty) <- counts.(ty) + 1) type_id;
  let by_type = Array.map (fun c -> Array.make c 0) counts in
  (* Filled back to front, counting each type's row down to 0. *)
  for i = total - 1 downto 0 do
    let ty = type_id.(i) in
    counts.(ty) <- counts.(ty) - 1;
    by_type.(ty).(counts.(ty)) <- i
  done;
  { types; parent; type_id; rank; value; kid_start; kids; by_type; roots }

let of_tree tree = of_forest [ tree ]

let of_string s = of_tree (Parser.parse s)

let types t = t.types
let node_count t = Array.length t.type_id
let parent t i = t.parent.(i)
let type_of t i = t.type_id.(i)
let rank t i = t.rank.(i)
let dewey t i = Dewey.of_ranks ~parent:t.parent ~rank:t.rank i
let value t i = t.value.(i)
let name t i = Type_table.label t.types t.type_id.(i)
let kind t i = if Type_table.is_attribute t.types t.type_id.(i) then Attribute else Element

let parent_column t = t.parent
let type_column t = t.type_id
let rank_column t = t.rank

let child_count t i = t.kid_start.(i + 1) - t.kid_start.(i)
let child t i k = t.kids.(t.kid_start.(i) + k)

let node t i =
  { id = i; dewey = dewey t i; kind = kind t i; name = name t i;
    type_id = t.type_id.(i); parent = t.parent.(i);
    children = Array.sub t.kids t.kid_start.(i) (child_count t i);
    value = t.value.(i) }

let root t = node t (List.hd t.roots)
let roots t = List.map (node t) t.roots

let nodes_of_type t ty =
  if ty < 0 || ty >= Array.length t.by_type then [||] else t.by_type.(ty)

let type_count t ty = Array.length (nodes_of_type t ty)

let rec subtree t i =
  let attrs = ref [] and elems = ref [] in
  for k = child_count t i - 1 downto 0 do
    let c = child t i k in
    match kind t c with
    | Attribute -> attrs := (name t c, t.value.(c)) :: !attrs
    | Element -> elems := subtree t c :: !elems
  done;
  let v = t.value.(i) in
  let children = if v = "" then !elems else Tree.Text v :: !elems in
  Tree.Element { name = name t i; attrs = !attrs; children }

let to_tree t = subtree t (List.hd t.roots)

let to_trees t = List.map (subtree t) t.roots

let distance t a b = Dewey.distance (dewey t a) (dewey t b)
