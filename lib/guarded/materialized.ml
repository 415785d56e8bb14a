type update =
  | Replace_value of { select : string; value : string }
  | Insert_child of { select : string; child : Xml.Tree.t }
  | Delete of { select : string }
  | Rename of { select : string; name : string }

exception Bad_select of string

type t = {
  tree : Xml.Tree.t; (* current source *)
  doc : Xml.Doc.t;
      (* [tree] indexed at [create] or the last [rebuild]: value writes
         change no ids or names, so select paths resolve against it. *)
  store : Store.Shredded.t;
  compiled : Xmorph.Interp.t;
  output : Xml.Tree.t;
  guard : string;
  enforce : bool;
  refreshes : int;
}

(* ---------------- select paths ---------------- *)

type step = { name : string; index : int option (* 1-based *) }

let parse_select s =
  let fail () = raise (Bad_select (Printf.sprintf "malformed select path %S" s)) in
  let s = String.trim s in
  if s = "" || s.[0] <> '/' then fail ();
  let parts = List.tl (String.split_on_char '/' s) in
  if parts = [] then fail ();
  List.map
    (fun part ->
      match String.index_opt part '[' with
      | None -> if part = "" then fail () else { name = part; index = None }
      | Some i ->
          if String.length part < i + 3 || part.[String.length part - 1] <> ']'
          then fail ();
          let name = String.sub part 0 i in
          let num = String.sub part (i + 1) (String.length part - i - 2) in
          (match int_of_string_opt num with
          | Some k when k >= 1 && name <> "" -> { name; index = Some k }
          | _ -> fail ()))
    parts

(* The first step names the root, and the only position a root has is
   1: any other index matches nothing. *)
let names_root root { name; index } =
  String.equal root name
  && match index with None | Some 1 -> true | Some _ -> false

(* Functional update of every selected node in a tree.  [f] maps the
   selected element to its replacement list (deletion = []). *)
let update_tree tree steps ~(f : Xml.Tree.t -> Xml.Tree.t list) =
  let hits = ref 0 in
  let rec go (node : Xml.Tree.t) steps =
    match (node, steps) with
    | Xml.Tree.Text _, _ -> [ node ]
    | Xml.Tree.Element e, [ { name; index } ] when e.name = name ->
        ignore index;
        incr hits;
        f node
    | Xml.Tree.Element e, { name; _ } :: rest when e.name = name && rest <> [] ->
        let counters = Hashtbl.create 4 in
        let children =
          List.concat_map
            (fun c ->
              match (c, rest) with
              | Xml.Tree.Element ce, { name = cname; index } :: _
                when ce.name = cname ->
                  let k = 1 + Option.value ~default:0 (Hashtbl.find_opt counters cname) in
                  Hashtbl.replace counters cname k;
                  if match index with Some want -> want = k | None -> true then
                    go c rest
                  else [ c ]
              | _ -> [ c ])
            e.children
        in
        [ Xml.Tree.Element { e with children } ]
    | _ -> [ node ]
  in
  let result =
    match steps with
    | [ root ] when names_root (Xml.Tree.name tree) root ->
        incr hits;
        f tree
    | root :: _ :: _ when names_root (Xml.Tree.name tree) root -> go tree steps
    | _ -> [ tree ]
  in
  (!hits, result)

(* The ids of the source nodes a select path names, via the indexed doc;
   the first document's root is node 0. *)
let select_ids doc steps =
  let rec go id steps =
    match steps with
    | [] -> [ id ]
    | { name; index } :: rest ->
        let matches =
          List.init (Xml.Doc.child_count doc id) (Xml.Doc.child doc id)
          |> List.filter (fun ci -> Xml.Doc.name doc ci = name)
        in
        let matches =
          match index with
          | None -> matches
          | Some k -> (match List.nth_opt matches (k - 1) with Some x -> [ x ] | None -> [])
        in
        List.concat_map (fun ci -> go ci rest) matches
  in
  match steps with
  | root :: rest when names_root (Xml.Doc.name doc 0) root -> go 0 rest
  | _ -> []

(* ---------------- the view ---------------- *)

let render store compiled = Xmorph.Interp.render store compiled

let create ?(enforce = true) doc ~guard =
  let store = Store.Shredded.shred doc in
  let compiled = Xmorph.Interp.compile ~enforce (Store.Shredded.guide store) guard in
  {
    tree = Xml.Doc.to_tree doc;
    doc;
    store;
    compiled;
    output = render store compiled;
    guard;
    enforce;
    refreshes = 0;
  }

let output t = t.output
let source t = t.tree
let guard_text t = t.guard
let full_refreshes t = t.refreshes
let store t = t.store

let query t src = Xquery.Eval.run t.output src

let rebuild t tree =
  let doc = Xml.Doc.of_tree tree in
  let store = Store.Shredded.shred doc in
  let compiled =
    Xmorph.Interp.compile ~enforce:t.enforce (Store.Shredded.guide store) t.guard
  in
  {
    t with
    tree;
    doc;
    store;
    compiled;
    output = render store compiled;
    refreshes = t.refreshes + 1;
  }

let set_text value (node : Xml.Tree.t) =
  match node with
  | Xml.Tree.Element e ->
      let others =
        List.filter
          (function Xml.Tree.Text _ -> false | Xml.Tree.Element _ -> true)
          e.children
      in
      let children = if value = "" then others else Xml.Tree.Text value :: others in
      [ Xml.Tree.Element { e with children } ]
  | t -> [ t ]

let apply t update =
  match update with
  | Replace_value { select; value } ->
      let steps = parse_select select in
      (* Fast path: one batched write of the selected values, then a
         re-render from the same store; the shape and the compiled guard
         are untouched. *)
      let ids = select_ids t.doc steps in
      if ids = [] then raise (Bad_select (select ^ " matches nothing"));
      let store =
        Store.Shredded.update_values t.store (List.map (fun id -> (id, value)) ids)
      in
      let hits, trees = update_tree t.tree steps ~f:(set_text value) in
      ignore hits;
      let tree = match trees with [ x ] -> x | _ -> t.tree in
      { t with tree; store; output = render store t.compiled }
  | Insert_child { select; child } ->
      let steps = parse_select select in
      let hits, trees =
        update_tree t.tree steps ~f:(fun node ->
            match node with
            | Xml.Tree.Element e ->
                [ Xml.Tree.Element { e with children = e.children @ [ child ] } ]
            | other -> [ other ])
      in
      if hits = 0 then raise (Bad_select (select ^ " matches nothing"));
      rebuild t (match trees with [ x ] -> x | _ -> t.tree)
  | Delete { select } ->
      let steps = parse_select select in
      let hits, trees = update_tree t.tree steps ~f:(fun _ -> []) in
      if hits = 0 then raise (Bad_select (select ^ " matches nothing"));
      (match trees with
      | [ x ] -> rebuild t x
      | _ -> raise (Bad_select "cannot delete the document root"))
  | Rename { select; name } ->
      let steps = parse_select select in
      let hits, trees =
        update_tree t.tree steps ~f:(fun node ->
            match node with
            | Xml.Tree.Element e -> [ Xml.Tree.Element { e with name } ]
            | other -> [ other ])
      in
      if hits = 0 then raise (Bad_select (select ^ " matches nothing"));
      rebuild t (match trees with [ x ] -> x | _ -> t.tree)
