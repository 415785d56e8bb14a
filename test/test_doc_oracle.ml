(* [Xml.Doc.of_forest] and [Xml.Dataguide.of_doc] against the indexer and
   the cardinality pass they replaced ([Doc_oracle]): every column of the
   node table, each type's component and parent, and each edge's
   cardinality and instance count are equal.  Inputs are the shared random
   trees, the reshaping generator's trees, trees with wide types, forests
   of several trees, copies of all of these whose names are fresh strings
   (so that no name is found by physical equality), and the XMark, DBLP and
   NASA generators at two seeds, as generated and as parsed. *)

let fail fmt = Printf.ksprintf failwith fmt

(* Fails naming the first row where two columns differ. *)
let same_column name show a b =
  if Array.length a <> Array.length b then
    fail "%s: %d rows against the oracle's %d" name (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if x <> b.(i) then
        fail "%s.(%d) = %s against the oracle's %s" name i (show x) (show b.(i)))
    a

let same name show a b =
  if a <> b then fail "%s = %s against the oracle's %s" name (show a) (show b)

let agree trees =
  let doc = Xml.Doc.of_forest trees and o = Doc_oracle.of_forest trees in
  let n = Xml.Doc.node_count doc in
  same_column "parent" string_of_int (Xml.Doc.parent_column doc) o.parent;
  same_column "type_id" string_of_int (Xml.Doc.type_column doc) o.type_id;
  same_column "rank" string_of_int (Xml.Doc.rank_column doc) o.rank;
  same_column "value" (Printf.sprintf "%S") (Array.init n (Xml.Doc.value doc)) o.value;
  let kid_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    kid_start.(i + 1) <- kid_start.(i) + Xml.Doc.child_count doc i
  done;
  same_column "kid_start" string_of_int kid_start o.kid_start;
  let kids =
    Array.concat
      (List.init n (fun i -> Array.init (Xml.Doc.child_count doc i) (Xml.Doc.child doc i)))
  in
  same_column "kids" string_of_int kids o.kids;
  same "roots"
    (fun l -> String.concat " " (List.map string_of_int l))
    (List.map (fun (r : Xml.Doc.node) -> r.id) (Xml.Doc.roots doc))
    o.roots;
  let types = Xml.Doc.types doc in
  same "type count" string_of_int (Xml.Type_table.count types) (Xml.Type_table.count o.types);
  let parent = function None -> "none" | Some p -> string_of_int p in
  let guide = Xml.Dataguide.of_doc doc and cards, counts = Doc_oracle.cards o in
  for ty = 0 to Xml.Type_table.count types - 1 do
    let at field = Printf.sprintf "type %d's %s" ty field in
    same (at "component") Fun.id (Xml.Type_table.component types ty)
      (Xml.Type_table.component o.types ty);
    same (at "parent") parent (Xml.Type_table.parent types ty) (Xml.Type_table.parent o.types ty);
    same_column (at "by_type") string_of_int (Xml.Doc.nodes_of_type doc ty) o.by_type.(ty);
    same (at "card") Xmutil.Card.to_string (Xml.Dataguide.card guide ty) cards.(ty);
    same (at "count") string_of_int (Xml.Dataguide.instance_count guide ty) counts.(ty)
  done;
  same "shape roots"
    (fun l -> String.concat " " (List.map string_of_int l))
    (Xml.Dataguide.roots guide)
    (List.filter
       (fun ty -> Xml.Type_table.parent o.types ty = None)
       (List.init (Xml.Type_table.count o.types) Fun.id))

(* Every name copied into a fresh string. *)
let rec fresh = function
  | Xml.Tree.Text s -> Xml.Tree.Text s
  | Xml.Tree.Element { name; attrs; children } ->
      let copy s = Bytes.to_string (Bytes.of_string s) in
      Xml.Tree.Element
        { name = copy name;
          attrs = List.map (fun (a, v) -> (copy a, v)) attrs;
          children = List.map fresh children }

(* Elements with up to 40 element children of 30 names, and up to 8
   attributes of 25 names: chains pass the width where lookups turn to a
   hash table (for attributes, over the instances of a type), at the root
   and a level below it. *)
let gen_wide =
  let pool prefix n = Array.init n (Printf.sprintf "%s%d" prefix) in
  let kid_names = pool "k" 30 and attr_names = pool "a" 25 in
  QCheck2.Gen.(
    let attrs =
      let* n = int_range 0 8 in
      let* picked = list_repeat n (int_range 0 24) in
      return (List.map (fun i -> (attr_names.(i), "v")) (List.sort_uniq compare picked))
    in
    let rec element depth =
      let* name = oneofa kid_names in
      let* attrs = attrs in
      let* n = if depth = 0 then return 0 else int_range 0 40 in
      let* kids = list_repeat n (element (depth - 1)) in
      let+ text = oneofl [ []; [ Xml.Tree.Text "t" ] ] in
      Xml.Tree.Element { name; attrs; children = text @ kids }
    in
    element 2)

let gen_case =
  QCheck2.Gen.(
    let tree = frequency [ (3, Gen.gen_tree); (3, Test_loss.gen_shaped_tree); (1, gen_wide) ] in
    let* trees =
      frequency [ (3, map (fun t -> [ t ]) tree); (1, list_size (int_range 2 4) tree) ]
    in
    let+ copied = bool in
    if copied then List.map fresh trees else trees)

let print_case trees = String.concat "\n" (List.map Xml.Printer.to_string trees)

let prop_agrees =
  QCheck2.Test.make ~name:"index and cards = the replaced ones on random forests" ~count:1000
    ~print:print_case
    (* unshrunk, so that a failure prints its case at once *)
    (QCheck2.Gen.no_shrink gen_case)
    (fun trees ->
      agree trees;
      true)

let test_workloads () =
  List.iter
    (fun seed ->
      List.iter
        (fun tree ->
          agree [ tree ];
          agree [ Xml.Parser.parse (Xml.Printer.to_string tree) ];
          agree [ fresh tree ])
        [ Workloads.Xmark.generate ~seed ~factor:0.002 ();
          Workloads.Dblp.generate ~seed ~entries:150 ();
          Workloads.Nasa.generate ~seed ~datasets:15 () ])
    [ 1; 7 ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_agrees;
    Alcotest.test_case "index and cards = the replaced ones on XMark, DBLP, NASA" `Quick
      test_workloads ]
