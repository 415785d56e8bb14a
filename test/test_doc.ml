open Xmutil

let fig_a () = Xml.Doc.of_string Workloads.Figures.instance_a

let find_type doc label =
  let guide = Xml.Dataguide.of_doc doc in
  match Xml.Dataguide.match_label guide label with
  | [ t ] -> t
  | ts ->
      Alcotest.failf "label %s matched %d types" label (List.length ts)

let test_indexing () =
  let doc = fig_a () in
  let root = Xml.Doc.root doc in
  Alcotest.(check string) "root name" "data" root.name;
  Alcotest.(check string) "root dewey" "1" (Dewey.to_string root.dewey);
  Alcotest.(check int) "root parent" (-1) root.parent;
  (* data(1) + 2 books + 2 titles + 3 authors + 3 names + 2 publishers
     + 2 names = 15 vertices *)
  Alcotest.(check int) "node count" 15 (Xml.Doc.node_count doc)

let test_dewey_assignment () =
  let doc = fig_a () in
  let title = find_type doc "title" in
  let ids = Xml.Doc.nodes_of_type doc title in
  let deweys =
    Array.to_list (Array.map (fun i -> Dewey.to_string (Xml.Doc.node doc i).dewey) ids)
  in
  Alcotest.(check (list string)) "title deweys" [ "1.1.1"; "1.2.1" ] deweys

let test_attribute_nodes () =
  let doc = Xml.Doc.of_string {|<r><e a="1" b="2"><f/></e></r>|} in
  Alcotest.(check int) "count includes attrs" 5 (Xml.Doc.node_count doc);
  let guide = Xml.Dataguide.of_doc doc in
  let a = List.hd (Xml.Dataguide.match_label guide "a") in
  let node = Xml.Doc.node doc (Xml.Dataguide.match_label guide "a" |> List.hd |> fun t -> (Xml.Doc.nodes_of_type doc t).(0)) in
  ignore a;
  Alcotest.(check string) "attr value" "1" node.value;
  Alcotest.(check bool) "attr kind" true (node.kind = Xml.Doc.Attribute);
  (* Attributes take Dewey slots before element children. *)
  Alcotest.(check string) "attr dewey" "1.1.1" (Dewey.to_string node.dewey)

let test_document_order () =
  let doc = fig_a () in
  for i = 1 to Xml.Doc.node_count doc - 1 do
    let prev = (Xml.Doc.node doc (i - 1)).dewey and cur = (Xml.Doc.node doc i).dewey in
    Alcotest.(check bool) "ids follow document order" true (Dewey.compare prev cur < 0)
  done

let test_value_direct_text () =
  let doc = Xml.Doc.of_string "<a>one<b>two</b>three</a>" in
  Alcotest.(check string) "direct text only" "onethree" (Xml.Doc.root doc).value

let test_subtree_roundtrip () =
  let doc = fig_a () in
  let tree = Xml.Doc.to_tree doc in
  Alcotest.(check bool) "to_tree equals source" true
    (Xml.Tree.equal tree (Xml.Parser.parse Workloads.Figures.instance_a))

(* The data-level typeDistance (Def. 2) of two types: the store's
   closest-join level [l] over their instances gives
   [depth t + depth u - 2l]. *)
let type_distance store t u =
  let tt = Store.Shredded.types store in
  Xml.Type_table.depth tt t + Xml.Type_table.depth tt u
  - (2 * Store.Shredded.join_level store t u)

let test_type_distance_paper () =
  (* Sec. VII: typeDistance(publisher, title) = 2 in instance (a). *)
  let doc = fig_a () in
  let store = Store.Shredded.shred doc in
  let publisher = find_type doc "publisher" and title = find_type doc "title" in
  Alcotest.(check int) "publisher-title" 2 (type_distance store publisher title);
  let author = find_type doc "author" in
  Alcotest.(check int) "author-title" 2 (type_distance store author title);
  Alcotest.(check int) "self distance" 0 (type_distance store title title)

let test_type_distance_deeper_than_shape () =
  (* Shape-level distance can underestimate: here the only <x> under the
     first <g> has no <y> sibling subtree, and the only <y> lives under the
     second <g>; the real minimum distance goes through <r>. *)
  let doc = Xml.Doc.of_string "<r><g><x/></g><g><y/></g></r>" in
  let guide = Xml.Dataguide.of_doc doc in
  let x = List.hd (Xml.Dataguide.match_label guide "x") in
  let y = List.hd (Xml.Dataguide.match_label guide "y") in
  Alcotest.(check int) "shape distance" 2 (Xml.Dataguide.type_distance guide x y);
  Alcotest.(check int) "data distance" 4 (type_distance (Store.Shredded.shred doc) x y)

(* Brute-force data-level type distance for the qcheck oracle. *)
let brute_type_distance doc t1 t2 =
  let a = Xml.Doc.nodes_of_type doc t1 and b = Xml.Doc.nodes_of_type doc t2 in
  let best = ref max_int in
  Array.iter
    (fun v ->
      Array.iter (fun w -> best := min !best (Xml.Doc.distance doc v w)) b)
    a;
  !best

(* Every type pair, through a store and through one derived from it by a
   value update, which shares its join-level cache: asked first, the
   derived store fills the cache the original then reads. *)
let prop_type_distance_matches_bruteforce =
  QCheck2.Test.make ~name:"type_distance = brute force minimum" ~count:200
    Gen.gen_doc (fun doc ->
      let store = Store.Shredded.shred doc in
      let derived = Store.Shredded.update_values store [ (0, "updated") ] in
      let types = Xml.Dataguide.all_types (Store.Shredded.guide store) in
      List.for_all
        (fun t1 ->
          List.for_all
            (fun t2 ->
              let d = brute_type_distance doc t1 t2 in
              type_distance derived t1 t2 = d && type_distance store t1 t2 = d)
            types)
        types)

let prop_sequences_sorted =
  QCheck2.Test.make ~name:"per-type sequences in document order" ~count:200
    Gen.gen_doc (fun doc ->
      let guide = Xml.Dataguide.of_doc doc in
      List.for_all
        (fun ty ->
          let ids = Xml.Doc.nodes_of_type doc ty in
          let ok = ref true in
          for i = 1 to Array.length ids - 1 do
            if
              Dewey.compare (Xml.Doc.node doc ids.(i - 1)).dewey
                (Xml.Doc.node doc ids.(i)).dewey
              >= 0
            then ok := false
          done;
          !ok)
        (Xml.Dataguide.all_types guide))

let prop_parent_child_consistent =
  QCheck2.Test.make ~name:"parent/children links consistent" ~count:200
    Gen.gen_doc (fun doc ->
      let ok = ref true in
      for i = 0 to Xml.Doc.node_count doc - 1 do
        let n = Xml.Doc.node doc i in
        Array.iter
          (fun ci -> if (Xml.Doc.node doc ci).parent <> i then ok := false)
          n.children;
        if n.parent >= 0 then begin
          let p = Xml.Doc.node doc n.parent in
          if not (Array.mem i p.children) then ok := false;
          if Dewey.common_prefix_len p.dewey n.dewey <> Dewey.level p.dewey then
            ok := false
        end
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "indexing basics" `Quick test_indexing;
    Alcotest.test_case "dewey assignment" `Quick test_dewey_assignment;
    Alcotest.test_case "attribute vertices" `Quick test_attribute_nodes;
    Alcotest.test_case "ids are document order" `Quick test_document_order;
    Alcotest.test_case "value is direct text" `Quick test_value_direct_text;
    Alcotest.test_case "to_tree roundtrip" `Quick test_subtree_roundtrip;
    Alcotest.test_case "typeDistance (paper values)" `Quick test_type_distance_paper;
    Alcotest.test_case "typeDistance beyond shape level" `Quick
      test_type_distance_deeper_than_shape;
    QCheck_alcotest.to_alcotest prop_type_distance_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_sequences_sorted;
    QCheck_alcotest.to_alcotest prop_parent_child_consistent;
  ]

(* The index is pinned: a digest of every [Doc.node] field, node by node,
   for fixed-seed workload documents (ingested from their serialized text),
   a mixed-content two-document collection, and twenty fixed-seed generated
   trees.  Any change to ids, Dewey numbers, type ids, children or values
   fails here. *)
let node_digest doc =
  let b = Buffer.create 4096 in
  for i = 0 to Xml.Doc.node_count doc - 1 do
    let n = Xml.Doc.node doc i in
    Printf.bprintf b "%d %s %c %S %d %d [%s] %S\n" n.id (Dewey.to_string n.dewey)
      (match n.kind with Xml.Doc.Element -> 'E' | Xml.Doc.Attribute -> 'A')
      n.name n.type_id n.parent
      (String.concat " " (Array.to_list (Array.map string_of_int n.children)))
      n.value
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let reparse tree = Xml.Doc.of_string (Xml.Printer.to_string tree)

let test_nodes_pinned () =
  let check name expected doc =
    Alcotest.(check string) name expected (node_digest doc)
  in
  check "xmark" "5de7eefb1601e33f481284b9150ef274" (reparse (Workloads.Xmark.generate ~seed:11 ~factor:0.002 ()));
  check "dblp" "3a72b3f2e3bdfcbcf6f4db98d290762b" (reparse (Workloads.Dblp.generate ~seed:12 ~entries:150 ()));
  check "nasa" "af835a9d8f65cd85a2c1c2ad1d3f735d" (reparse (Workloads.Nasa.generate ~seed:13 ~datasets:20 ()));
  let parse = Xml.Parser.parse in
  check "collection" "3eab74a331ec6bb7bad0d7c92f8760c4"
    (Xml.Doc.of_forest
       [ parse {|<r k="a&amp;b"><!-- c --><a x='1'>one<b/>two<![CDATA[<3>]]></a><a>&#233;&lt;</a></r>|};
         parse "<r>\n  <a y=\"2\">  x  </a>\n  <?pi?><c/>\n</r>" ]);
  (* Generated trees are indexed as built: adjacent text children and
     whitespace reach [of_tree] unparsed. *)
  Alcotest.(check string) "fuzz" "d72a706087292dc03ee83475390d1d93"
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map (fun t -> node_digest (Xml.Doc.of_tree t)) Gen.fixed_trees))))

let suite = suite @ [ Alcotest.test_case "node fields pinned" `Quick test_nodes_pinned ]

(* An element named "@x" would share the type of a sibling attribute x and
   be read back as an attribute; indexing refuses it. *)
let test_at_element_refused () =
  let tree =
    Xml.Tree.element ~attrs:[ ("x", "1") ] "r" [ Xml.Tree.element "@x" [] ]
  in
  match Xml.Doc.of_tree tree with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  suite @ [ Alcotest.test_case "element named @x refused" `Quick test_at_element_refused ]
