(* Unit tests for the lazy navigation layer (Render.Nav) underlying
   architecture 3. *)

open Xmorph

let setup guard =
  let store = Store.Shredded.shred (Xml.Doc.of_string Workloads.Figures.instance_a) in
  let compiled = Interp.compile ~enforce:false (Store.Shredded.guide store) guard in
  (store, compiled, Render.Nav.create store compiled.Interp.shape)

let test_roots () =
  let _, _, nav = setup Workloads.Figures.example_guard in
  match Render.Nav.roots nav with
  | [ (tn, ids) ] ->
      Alcotest.(check string) "root name" "author" tn.Render.node.Tshape.out_name;
      Alcotest.(check int) "three authors" 3 (Array.length ids)
  | _ -> Alcotest.fail "expected one root node"

let test_children_lazy () =
  let _, _, nav = setup Workloads.Figures.example_guard in
  let tn, ids = List.hd (Render.Nav.roots nav) in
  let kids = Render.Nav.children nav tn ids.(0) in
  Alcotest.(check int) "two child nodes" 2 (List.length kids);
  List.iter
    (fun (c, insts) ->
      let c = c.Render.node in
      Alcotest.(check int) (c.Tshape.out_name ^ " one instance") 1 (Array.length insts))
    kids

let test_value_and_deep_text () =
  let _, _, nav = setup "MORPH author [ name ]" in
  let tn, ids = List.hd (Render.Nav.roots nav) in
  Alcotest.(check string) "direct text empty" "" (Render.Nav.value nav tn ids.(0));
  Alcotest.(check string) "deep text" "A" (Render.Nav.deep_text nav tn ids.(0))

let test_materialize_subtree () =
  let _, _, nav = setup Workloads.Figures.example_guard in
  let tn, ids = List.hd (Render.Nav.roots nav) in
  let tree = Render.Nav.materialize nav tn ids.(1) in
  Tutil.check_xml "second author"
    "<author><name>B</name><book><title>X</title></book></author>" tree

let test_materialize_agrees_with_full_render () =
  let store, compiled, nav = setup Workloads.Figures.example_guard in
  let full = Interp.render store compiled in
  let pieces =
    List.concat_map
      (fun (tn, ids) ->
        Array.to_list (Array.map (Render.Nav.materialize nav tn) ids))
      (Render.Nav.roots nav)
  in
  let wrapped = Xml.Tree.Element { name = "result"; attrs = []; children = pieces } in
  Alcotest.(check bool) "piecewise = full" true (Xml.Tree.equal full wrapped)

let test_attributes () =
  let src = {|<r><e year="1999"><v>one</v></e></r>|} in
  let store = Store.Shredded.shred (Xml.Doc.of_string src) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store) "MORPH e [ @year v ]"
  in
  let nav = Render.Nav.create store compiled.Interp.shape in
  let tn, ids = List.hd (Render.Nav.roots nav) in
  Alcotest.(check (list (pair string string))) "attrs" [ ("year", "1999") ]
    (Render.Nav.attributes nav tn ids.(0));
  Alcotest.(check int) "element children exclude attrs" 1
    (List.length (Render.Nav.element_children nav tn ids.(0)))

let test_new_nodes () =
  let store = Store.Shredded.shred (Xml.Doc.of_string Workloads.Figures.instance_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      "MUTATE (NEW scribe) [ author ]"
  in
  let nav = Render.Nav.create store compiled.Interp.shape in
  (* Book is the root's child; take the first book instance and ask for
     its children. *)
  let named name (c, _) = c.Render.node.Tshape.out_name = name in
  let data, data_ids = List.hd (Render.Nav.roots nav) in
  let book, book_ids = List.find (named "book") (Render.Nav.children nav data data_ids.(0)) in
  let kids = Render.Nav.children nav book book_ids.(0) in
  let _, scribe_insts = List.find (named "scribe") kids in
  (* Book 1 has two authors -> two scribes. *)
  Alcotest.(check int) "one scribe per author" 2 (Array.length scribe_insts)

(* Does every root instance, and every child reached through
   [element_children], materialize to the matching subtree of the
   physical render, attribute order and text included?  [subtrees]
   counts the subtrees compared. *)
let materializes_as_rendered ~subtrees store (shape : Tshape.t) =
  let nav = Render.Nav.create store shape in
  let instances runs =
    List.concat_map (fun (h, ids) -> List.map (fun id -> (h, id)) (Array.to_list ids)) runs
  in
  let rec same (h, id) tree =
    incr subtrees;
    let elements =
      List.filter
        (function Xml.Tree.Element _ -> true | Xml.Tree.Text _ -> false)
        (Xml.Tree.children tree)
    in
    let kids = instances (Render.Nav.element_children nav h id) in
    Render.Nav.materialize nav h id = tree
    && List.length kids = List.length elements
    && List.for_all2 same kids elements
  in
  let roots = instances (Render.Nav.roots nav) and physical = Render.to_trees store shape in
  List.length roots = List.length physical && List.for_all2 same roots physical

(* Over random documents and guards with attributes, NEW nodes, value
   filters, RESTRICT and ORDER-BY; and over attribute-typed leaves with
   none, one or two instances under a parent that is or is not their
   owner, which render as attributes only when there is one. *)
let test_materialize_random_guards () =
  let compiled = ref 0 and subtrees = ref 0 in
  let prop (doc, guard) =
    let store = Store.Shredded.shred doc in
    match Interp.compile ~enforce:false (Store.Shredded.guide store) guard with
    | exception _ -> true
    | c ->
        incr compiled;
        materializes_as_rendered ~subtrees store c.Interp.shape
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"materialize = physical subtree on random guards" ~count:500
       ~print:(fun (doc, g) -> Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g)
       (* unshrunk, as in test_logical *)
       (QCheck2.Gen.no_shrink Test_logical.gen_guard_case) prop);
  Printf.printf "%d compiled cases, %d subtrees compared\n" !compiled !subtrees;
  Alcotest.(check bool) "some cases compile" true (!compiled > 0);
  let src =
    {|<r><e year="1999" id="a"><v>one</v></e><e year="2000"><v>two</v><v>2</v></e><e/></r>|}
  in
  let store = Store.Shredded.shred (Xml.Doc.of_string src) in
  List.iter
    (fun guard ->
      let c = Interp.compile ~enforce:false (Store.Shredded.guide store) guard in
      Alcotest.(check bool) guard true (materializes_as_rendered ~subtrees store c.Interp.shape))
    [ "MORPH e [ @year @id v ]"; "MORPH r [ @year v ]"; "MORPH v [ @year @id ]";
      "MORPH (RESTRICT e [ v ]) [ @id @year ]"; "MORPH e [ (NEW x) [ @year v ] ]" ]

let suite =
  [
    Alcotest.test_case "roots" `Quick test_roots;
    Alcotest.test_case "children on demand" `Quick test_children_lazy;
    Alcotest.test_case "value and deep text" `Quick test_value_and_deep_text;
    Alcotest.test_case "materialize a subtree" `Quick test_materialize_subtree;
    Alcotest.test_case "piecewise = full render" `Quick
      test_materialize_agrees_with_full_render;
    Alcotest.test_case "virtual attributes" `Quick test_attributes;
    Alcotest.test_case "NEW nodes per anchor" `Quick test_new_nodes;
    Alcotest.test_case "materialize = physical subtree on random guards" `Quick
      test_materialize_random_guards;
  ]
