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

type t = {
  types : Type_table.t;
  nodes : node array;
  by_type : int array array;
  roots : int list;
  tdist_cache : (int * int, int) Hashtbl.t;
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
  let nodes =
    Array.make total
      { id = 0; dewey = [||]; kind = Element; name = ""; type_id = 0;
        parent = -1; children = [||]; value = "" }
  in
  let next_id = ref 0 in
  (* Ids are preorder ranks; each record is written once, an element's
     after its subtree so that its children array is complete.  The loops
     over attributes and children are functions of this one recursive
     group, not per-element closures. *)
  let rec index_element parent_id parent_ty dewey el =
    match el with
    | Tree.Text _ -> assert false
    | Tree.Element { name; attrs; children } ->
        let ty = Type_table.intern types ~parent:parent_ty name in
        let id = !next_id in
        incr next_id;
        let elements =
          List.fold_left
            (fun n -> function Tree.Element _ -> n + 1 | Tree.Text _ -> n)
            0 children
        in
        let kids = Array.make (List.length attrs + elements) 0 in
        let pty = Some ty in
        let k = index_attrs id pty dewey kids 0 attrs in
        index_children id pty dewey kids k children;
        nodes.(id) <-
          { id; dewey; kind = Element; name; type_id = ty; parent = parent_id;
            children = kids; value = text_value children };
        id
  and index_attrs parent pty dewey kids k = function
    | [] -> k
    | (name, value) :: rest ->
        let id = !next_id in
        incr next_id;
        nodes.(id) <-
          { id; dewey = Dewey.child dewey (k + 1); kind = Attribute; name;
            type_id = Type_table.intern types ~parent:pty ("@" ^ name); parent;
            children = [||]; value };
        kids.(k) <- id;
        index_attrs parent pty dewey kids (k + 1) rest
  and index_children parent pty dewey kids k = function
    | [] -> ()
    | Tree.Text _ :: rest -> index_children parent pty dewey kids k rest
    | (Tree.Element _ as child) :: rest ->
        kids.(k) <- index_element parent pty (Dewey.child dewey (k + 1)) child;
        index_children parent pty dewey kids (k + 1) rest
  in
  let roots = List.mapi (fun i tree -> index_element (-1) None [| i + 1 |] tree) trees in
  let counts = Array.make (Type_table.count types) 0 in
  Array.iter (fun n -> counts.(n.type_id) <- counts.(n.type_id) + 1) nodes;
  let by_type = Array.map (fun c -> Array.make c 0) counts in
  (* Filled back to front, counting each type's row down to 0. *)
  for i = total - 1 downto 0 do
    let ty = nodes.(i).type_id in
    counts.(ty) <- counts.(ty) - 1;
    by_type.(ty).(counts.(ty)) <- i
  done;
  { types; nodes; by_type; roots; tdist_cache = Hashtbl.create 64 }

let of_tree tree = of_forest [ tree ]

let of_string s = of_tree (Parser.parse s)

let types t = t.types
let node t i = t.nodes.(i)
let node_count t = Array.length t.nodes
let root t = t.nodes.(List.hd t.roots)
let roots t = List.map (fun i -> t.nodes.(i)) t.roots

let nodes_of_type t ty =
  if ty < 0 || ty >= Array.length t.by_type then [||] else t.by_type.(ty)

let type_count t ty = Array.length (nodes_of_type t ty)

let rec subtree t i =
  let n = t.nodes.(i) in
  let attrs, elems =
    Array.fold_left
      (fun (attrs, elems) ci ->
        let c = t.nodes.(ci) in
        match c.kind with
        | Attribute -> ((c.name, c.value) :: attrs, elems)
        | Element -> (attrs, subtree t ci :: elems))
      ([], []) n.children
  in
  let kids = List.rev elems in
  let kids = if n.value = "" then kids else Tree.Text n.value :: kids in
  Tree.Element { name = n.name; attrs = List.rev attrs; children = kids }

let to_tree t = subtree t (List.hd t.roots)

let to_trees t = List.map (subtree t) t.roots

let distance t a b = Dewey.distance t.nodes.(a).dewey t.nodes.(b).dewey

(* Exact data-level typeDistance (Def. 2).  Both sequences are Dewey-sorted;
   the maximum common-prefix length between any cross pair is achieved at
   some pair adjacent in the merged Dewey order, so one merge pass finds it. *)
let type_distance t t1 t2 =
  let key = if t1 <= t2 then (t1, t2) else (t2, t1) in
  match Hashtbl.find_opt t.tdist_cache key with
  | Some d -> d
  | None ->
      let a = nodes_of_type t t1 and b = nodes_of_type t t2 in
      if Array.length a = 0 || Array.length b = 0 then
        invalid_arg "Doc.type_distance: type has no instances";
      let da = Type_table.depth t.types t1 and db = Type_table.depth t.types t2 in
      let best = ref 0 in
      let i = ref 0 and j = ref 0 in
      let consider x y =
        let cp = Dewey.common_prefix_len t.nodes.(x).dewey t.nodes.(y).dewey in
        if cp > !best then best := cp
      in
      while !i < Array.length a && !j < Array.length b do
        consider a.(!i) b.(!j);
        let c = Dewey.compare t.nodes.(a.(!i)).dewey t.nodes.(b.(!j)).dewey in
        if c <= 0 then incr i else incr j
      done;
      (* Tail elements against the last element of the other side. *)
      if !i < Array.length a && !j > 0 then consider a.(!i) b.(!j - 1);
      if !j < Array.length b && !i > 0 then consider a.(!i - 1) b.(!j);
      let d = da + db - (2 * !best) in
      Hashtbl.add t.tdist_cache key d;
      d
