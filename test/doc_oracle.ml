(* The indexer and the cardinality pass as the engine ran them before it
   found child types by a scan of physical names and took cardinalities
   from run lengths: the reference [Xml.Doc.of_forest] and
   [Xml.Dataguide.of_doc] are checked against.  The node table is the same
   columns, as a record of its own. *)

open Xml

type t = {
  types : Type_table.t;
  parent : int array;
  type_id : int array;
  rank : int array;
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
  let types = Type_table.create () in
  let total = List.fold_left (fun n t -> n + Tree.count_nodes t) 0 trees in
  let parent = Array.make total (-1) and type_id = Array.make total 0 in
  let rank = Array.make total 0 and value = Array.make total "" in
  let kid_start = Array.make (total + 1) 0 and kids = Array.make (total - List.length trees) 0 in
  (* Child types by raw name, two tables per parent type, one of its
     element children and one of its attributes: [Type_table.intern] runs
     once per new type, so ids keep their first-visit order.  As no element
     name begins with "@", a name missing from its table is a new type. *)
  let no_children = Hashtbl.create 1 and root_types = Hashtbl.create 2 in
  let elements = Xmutil.Vec.create () and attributes = Xmutil.Vec.create () in
  let intern tables parent name ~attr =
    let tbl = if parent < 0 then root_types else Xmutil.Vec.get tables parent in
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
        ignore (Xmutil.Vec.push elements no_children);
        ignore (Xmutil.Vec.push attributes no_children);
        let tbl =
          if tbl != no_children then tbl
          else begin
            let t = Hashtbl.create 8 in
            Xmutil.Vec.set tables parent t;
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
  for i = total - 1 downto 0 do
    let ty = type_id.(i) in
    counts.(ty) <- counts.(ty) - 1;
    by_type.(ty).(counts.(ty)) <- i
  done;
  { types; parent; type_id; rank; value; kid_start; kids; by_type; roots }

(* Each type's edge adornment (Def. 3) and instance count, by type id: a
   tally of child types under every node, folded into the range of each
   child type of the node's type. *)
let cards d =
  let n_types = Type_table.count d.types in
  let counts = Array.map Array.length d.by_type in
  (* Observed range of child counts per type; [hi] = -1 until observed. *)
  let lo = Array.make n_types max_int and hi = Array.make n_types (-1) in
  let tally = Array.make n_types 0 in
  let kid_types =
    Array.init n_types (fun ty -> Array.of_list (Type_table.children d.types ty))
  in
  for i = 0 to Array.length d.type_id - 1 do
    for k = d.kid_start.(i) to d.kid_start.(i + 1) - 1 do
      let cty = d.type_id.(d.kids.(k)) in
      tally.(cty) <- tally.(cty) + 1
    done;
    let kids = kid_types.(d.type_id.(i)) in
    for j = 0 to Array.length kids - 1 do
      let cty = kids.(j) in
      lo.(cty) <- Int.min lo.(cty) tally.(cty);
      hi.(cty) <- Int.max hi.(cty) tally.(cty);
      tally.(cty) <- 0
    done
  done;
  let cards =
    Array.mapi (fun ty h -> if h < 0 then Xmutil.Card.one else Xmutil.Card.v lo.(ty) h) hi
  in
  for ty = 0 to n_types - 1 do
    if Type_table.parent d.types ty = None then cards.(ty) <- Xmutil.Card.one
  done;
  (cards, counts)
