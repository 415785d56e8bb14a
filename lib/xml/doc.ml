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
  dewey : Dewey.t array;
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
  let dewey = Array.make total Dewey.root and value = Array.make total "" in
  let kid_start = Array.make (total + 1) 0 and kids = Array.make (total - List.length trees) 0 in
  (* Child types by raw name, a pair of tables (elements, attributes) per
     parent type: [Type_table.intern] runs once per new type, so ids keep
     their first-visit order.  As no element name begins with "@", a name
     missing from its table is a new type. *)
  let tables = Vec.create () in
  let intern tbl parent name ~attr =
    match Hashtbl.find tbl name with
    | ty -> ty
    | exception Not_found ->
        if (not attr) && String.starts_with ~prefix:"@" name then
          invalid_arg ("Doc.of_forest: element name begins with @: " ^ name);
        let parent = if parent < 0 then None else Some parent in
        let ty = Type_table.intern types ~parent (if attr then "@" ^ name else name) in
        ignore (Vec.push tables (Hashtbl.create 8, Hashtbl.create 2));
        Hashtbl.add tbl name ty;
        ty
  in
  (* Ids are preorder ranks.  A node's run of [kids] is reserved when it is
     numbered, so runs lie in id order. *)
  let next_id = ref 0 and next_kid = ref 0 in
  let add p ty d v =
    let id = !next_id in
    next_id := id + 1;
    parent.(id) <- p; type_id.(id) <- ty; dewey.(id) <- d; value.(id) <- v;
    kid_start.(id) <- !next_kid;
    id
  in
  (* The loops over attributes and children are functions of this one
     recursive group, not per-element closures. *)
  let rec index_element parent_id parent_ty tbl d el =
    match el with
    | Tree.Text _ -> assert false
    | Tree.Element { name; attrs; children } ->
        let ty = intern tbl parent_ty name ~attr:false in
        let id = add parent_id ty d (text_value children) in
        let start = !next_kid in
        next_kid :=
          List.fold_left (fun n -> function Tree.Element _ -> n + 1 | Tree.Text _ -> n)
            (start + List.length attrs) children;
        let k = index_attrs id ty (snd (Vec.get tables ty)) d start 0 attrs in
        index_children id ty (fst (Vec.get tables ty)) d start k children;
        id
  and index_attrs id ty tbl d start k = function
    | [] -> k
    | (name, v) :: rest ->
        kids.(start + k) <- add id (intern tbl ty name ~attr:true) (Dewey.child d (k + 1)) v;
        index_attrs id ty tbl d start (k + 1) rest
  and index_children id ty tbl d start k = function
    | [] -> ()
    | Tree.Text _ :: rest -> index_children id ty tbl d start k rest
    | (Tree.Element _ as child) :: rest ->
        kids.(start + k) <- index_element id ty tbl (Dewey.child d (k + 1)) child;
        index_children id ty tbl d start (k + 1) rest
  in
  let root_table = Hashtbl.create 2 in
  let roots = List.mapi (fun i -> index_element (-1) (-1) root_table [| i + 1 |]) trees in
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
  { types; parent; type_id; dewey; value; kid_start; kids; by_type; roots }

let of_tree tree = of_forest [ tree ]

let of_string s = of_tree (Parser.parse s)

let types t = t.types
let node_count t = Array.length t.type_id
let parent t i = t.parent.(i)
let type_of t i = t.type_id.(i)
let dewey t i = t.dewey.(i)
let value t i = t.value.(i)
let name t i = Type_table.label t.types t.type_id.(i)
let kind t i = if Type_table.is_attribute t.types t.type_id.(i) then Attribute else Element

let parent_column t = t.parent
let type_column t = t.type_id
let dewey_column t = t.dewey

let child_count t i = t.kid_start.(i + 1) - t.kid_start.(i)
let child t i k = t.kids.(t.kid_start.(i) + k)

let node t i =
  { id = i; dewey = t.dewey.(i); kind = kind t i; name = name t i;
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

let distance t a b = Dewey.distance t.dewey.(a) t.dewey.(b)
