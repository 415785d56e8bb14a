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
  ]
