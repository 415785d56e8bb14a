type node = {
  uid : int;
  mutable source : Xml.Type_table.id option;
  mutable out_name : string;
  mutable clone : bool;
  mutable filled : bool;
  mutable parent : node option;
  mutable children : node list;
  mutable restrict_children : node list;
  mutable value_filter : string option;
  mutable sort_key : (Xml.Type_table.id * bool) option;
  mutable origin : node option;
}

type t = { mutable roots : node list }

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let counter = ref 0

let fresh ?source ?(clone = false) ?(filled = false) ?origin out_name =
  incr counter;
  { uid = !counter; source; out_name; clone; filled; parent = None;
    children = []; restrict_children = []; value_filter = None;
    sort_key = None; origin }

let of_guide guide =
  let tt = Xml.Dataguide.types guide in
  let rec build ty =
    let n = fresh ~source:ty (Xml.Type_table.component tt ty) in
    let kids = List.map build (Xml.Dataguide.children guide ty) in
    List.iter (fun k -> k.parent <- Some n) kids;
    n.children <- kids;
    n
  in
  { roots = List.map build (Xml.Dataguide.roots guide) }

let rec copy_node ~deep n =
  let c =
    fresh ?source:n.source ~clone:n.clone ~filled:n.filled ~origin:n n.out_name
  in
  c.value_filter <- n.value_filter;
  c.sort_key <- n.sort_key;
  if deep then begin
    let kids = List.map (copy_node ~deep) n.children in
    List.iter (fun k -> k.parent <- Some c) kids;
    c.children <- kids;
    let rkids = List.map (copy_node ~deep) n.restrict_children in
    List.iter (fun k -> k.parent <- Some c) rkids;
    c.restrict_children <- rkids
  end;
  c

let copy t = { roots = List.map (copy_node ~deep:true) t.roots }

let in_subtree ~root n =
  let rec up = function
    | None -> false
    | Some x -> x == root || up x.parent
  in
  n == root || up n.parent

let detach t n =
  (match n.parent with
  | None -> t.roots <- List.filter (fun r -> r != n) t.roots
  | Some p ->
      p.children <- List.filter (fun c -> c != n) p.children;
      p.restrict_children <- List.filter (fun c -> c != n) p.restrict_children);
  n.parent <- None

let attach ~parent n =
  if in_subtree ~root:n parent then
    err "attaching %s under %s would create a cycle" n.out_name parent.out_name;
  (match n.parent with
  | None -> ()
  | Some p -> p.children <- List.filter (fun c -> c != n) p.children);
  n.parent <- Some parent;
  parent.children <- parent.children @ [ n ]

let replace_at t ~old_node n =
  (* Put [n] (already detached) exactly where [old_node] currently sits;
     [old_node] is left detached. *)
  match old_node.parent with
  | None ->
      t.roots <- List.map (fun r -> if r == old_node then n else r) t.roots;
      n.parent <- None
  | Some p ->
      p.children <- List.map (fun c -> if c == old_node then n else c) p.children;
      old_node.parent <- None;
      n.parent <- Some p

let move_under t ~parent n =
  if parent == n then err "cannot move %s under itself" n.out_name;
  if in_subtree ~root:n parent then begin
    (* Swap case: the new parent currently lives inside the moving subtree.
       Promote it to the mover's position first. *)
    detach t parent;
    replace_at t ~old_node:n parent
  end
  else detach t n;
  attach ~parent n

let remove_promote t n =
  let kids = n.children in
  (match n.parent with
  | None ->
      t.roots <-
        List.concat_map (fun r -> if r == n then kids else [ r ]) t.roots;
      List.iter (fun k -> k.parent <- None) kids
  | Some p ->
      p.children <-
        List.concat_map (fun c -> if c == n then kids else [ c ]) p.children;
      List.iter (fun k -> k.parent <- Some p) kids);
  n.parent <- None;
  n.children <- []

let iter t f =
  let rec go n =
    f n;
    List.iter go n.children
  in
  List.iter go t.roots

let iter_all t f =
  let rec go n =
    f n;
    List.iter go n.children;
    List.iter go n.restrict_children
  in
  List.iter go t.roots

let match_label t lbl =
  let nodes = ref [] in
  iter t (fun n -> nodes := n :: !nodes);
  Xml.Label.resolve ~name:(fun n -> n.out_name) ~parent:(fun n -> n.parent) lbl
    (List.rev !nodes)

let check_forest t =
  let seen = Hashtbl.create 16 in
  iter t (fun n ->
      if not n.clone then
        match n.source with
        | None -> ()
        | Some ty ->
            if Hashtbl.mem seen ty then
              err
                "type %s appears more than once in the target shape; use CLONE \
                 to duplicate a type"
                n.out_name
            else Hashtbl.add seen ty ())

let clear_origins t = iter_all t (fun n -> n.origin <- None)

let depth_in n =
  let rec go acc = function None -> acc | Some p -> go (acc + 1) p.parent in
  go 1 n.parent

let rec root_of n = match n.parent with None -> n | Some p -> root_of p

let pp fmt t =
  let rec go indent n =
    Format.fprintf fmt "%s%s%s%s%s@." indent n.out_name
      (if n.clone then " (clone)" else if n.filled then " (new)" else "")
      (match n.value_filter with None -> "" | Some v -> Printf.sprintf " (= %S)" v)
      (match n.restrict_children with
      | [] -> ""
      | rs -> " {restrict: " ^ String.concat " " (List.map (fun r -> r.out_name) rs) ^ "}");
    List.iter (go (indent ^ "  ")) n.children
  in
  List.iter (go "") t.roots

let to_string t = Format.asprintf "%a" pp t
