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
   document's exact size (counted in a pass over the trees before the
   walk).  Node [i]'s children are
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

(* The indexer: one preorder walk over the trees fills the row columns,
   then counting passes over the parent and type columns give the children
   in CSR form and the per-type sequences. *)
module Index = struct
  (* As no element name begins with "@", a name missing from its parent
     type's children is a new type.  Types are interned in first-visit
     order, so ids keep it. *)
  let child_type types ~parent ~attr name =
    match Type_table.find_child types ~parent ~attr name with
    | -1 ->
        if (not attr) && String.starts_with ~prefix:"@" name then
          invalid_arg ("Doc.of_forest: element name begins with @: " ^ name);
        Type_table.add_child types ~parent ~attr name
    | c -> c

  (* The row columns while they are filled: rows [0 .. n - 1] are written.
     An element's [value] stays [""] until its children are walked. *)
  type rows = {
    types : Type_table.t;
    mutable n : int;
    parent : int array;
    type_id : int array;
    rank : int array;
    value : string array;
  }

  let create types total =
    { types; n = 0; parent = Array.make total (-1); type_id = Array.make total 0;
      rank = Array.make total 0; value = Array.make total "" }

  let add r p ty k =
    let id = r.n in
    r.parent.(id) <- p;
    r.type_id.(id) <- ty;
    r.rank.(id) <- k;
    r.n <- id + 1;
    id

  (* Ids are preorder ranks: an element's row, its attributes' rows, then
     its children's subtrees.  Its value, its text children concatenated,
     is gathered in the one walk that indexes its element children; a
     single text child's string is shared, not copied. *)
  let rec element r p pty k = function
    | Tree.Text _ -> assert false
    | Tree.Element { name; attrs; children } ->
        let ty = child_type r.types ~parent:pty ~attr:false name in
        let id = add r p ty k in
        let v = children_of r id ty (attributes r id ty 1 attrs) "" children in
        if String.length v > 0 then r.value.(id) <- v

  (* Attributes take ranks [k], [k + 1], ...; returns the next rank. *)
  and attributes r id ty k = function
    | [] -> k
    | (name, v) :: rest ->
        let a = add r id (child_type r.types ~parent:ty ~attr:true name) k in
        r.value.(a) <- v;
        attributes r id ty (k + 1) rest

  and children_of r id ty k text = function
    | [] -> text
    | Tree.Text s :: rest ->
        let text =
          if String.length text = 0 then s else if String.length s = 0 then text else text ^ s
        in
        children_of r id ty k text rest
    | (Tree.Element _ as child) :: rest ->
        element r id ty k child;
        children_of r id ty (k + 1) text rest
end

let of_forest ?ctx trees =
  Xmobs.Ctx.region ctx Xmobs.Layer.xml_index @@ fun () ->
  let types = Type_table.create () in
  let total = List.fold_left (fun n t -> n + Tree.count_nodes t) 0 trees in
  let r = Index.create types total in
  let roots =
    List.mapi
      (fun i tree ->
        let id = r.n in
        Index.element r (-1) (-1) (i + 1) tree;
        id)
      trees
  in
  let { Index.parent; type_id; rank; value; _ } = r in
  (* Children in CSR form, from the parent column: a node's children are
     the later ids naming it as their parent, in id order, so attributes
     first.  [kid_start.(i + 1)] counts node [i]'s children, then holds the
     start of their run, then serves as its cursor, which ends at the start
     of node [i + 1]'s run. *)
  let kid_start = Array.make (total + 1) 0 in
  for i = 0 to total - 1 do
    let p = parent.(i) in
    if p >= 0 then kid_start.(p + 1) <- kid_start.(p + 1) + 1
  done;
  let start = ref 0 in
  for i = 1 to total do
    let c = kid_start.(i) in
    kid_start.(i) <- !start;
    start := !start + c
  done;
  let kids = Array.make (total - List.length trees) 0 in
  for i = 0 to total - 1 do
    let p = parent.(i) in
    if p >= 0 then begin
      kids.(kid_start.(p + 1)) <- i;
      kid_start.(p + 1) <- kid_start.(p + 1) + 1
    end
  done;
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

let of_tree ?ctx tree = of_forest ?ctx [ tree ]

let of_string ?ctx s = of_tree ?ctx (Parser.parse ?ctx s)

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
let value_column t = t.value

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
