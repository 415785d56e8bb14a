open Xmutil

let card = Alcotest.testable Card.pp Card.equal

let guide_of src = Xml.Dataguide.of_doc (Xml.Doc.of_string src)

let find guide label =
  match Xml.Dataguide.match_label guide label with
  | [ t ] -> t
  | ts -> Alcotest.failf "label %s matched %d types" label (List.length ts)

let test_cards_fig_a () =
  let g = guide_of Workloads.Figures.instance_a in
  Alcotest.check card "root" Card.one (Xml.Dataguide.card g (Xml.Dataguide.root g));
  Alcotest.check card "data->book 2..2" (Card.v 2 2) (Xml.Dataguide.card g (find g "book"));
  Alcotest.check card "book->author 1..2" (Card.v 1 2)
    (Xml.Dataguide.card g (find g "author"));
  Alcotest.check card "book->title 1..1" Card.one (Xml.Dataguide.card g (find g "title"));
  Alcotest.check card "book->publisher 1..1" Card.one
    (Xml.Dataguide.card g (find g "publisher"))

let test_cards_optional () =
  (* Paper Sec. IV: if the leftmost author had no name, author->name becomes
     0..1. *)
  let g =
    guide_of
      {|<data><book><author/><author><name>B</name></author></book></data>|}
  in
  Alcotest.check card "author->name 0..1" (Card.v 0 1)
    (Xml.Dataguide.card g (find g "name"))

let test_instance_counts () =
  let g = guide_of Workloads.Figures.instance_a in
  Alcotest.(check int) "authors" 3 (Xml.Dataguide.instance_count g (find g "author"));
  Alcotest.(check int) "books" 2 (Xml.Dataguide.instance_count g (find g "book"))

let test_match_label () =
  let g = guide_of Workloads.Figures.instance_a in
  Alcotest.(check int) "name ambiguous" 2
    (List.length (Xml.Dataguide.match_label g "name"));
  Alcotest.(check int) "dotted disambiguates" 1
    (List.length (Xml.Dataguide.match_label g "author.name"));
  Alcotest.(check int) "deep dotted" 1
    (List.length (Xml.Dataguide.match_label g "book.author.name"));
  Alcotest.(check int) "case-insensitive" 1
    (List.length (Xml.Dataguide.match_label g "AUTHOR"));
  Alcotest.(check int) "no match" 0 (List.length (Xml.Dataguide.match_label g "zzz"))

let test_match_label_attribute () =
  let g = guide_of {|<r><e year="1994"/><year>2000</year></r>|} in
  let tt = Xml.Dataguide.types g in
  let qnames label = List.map (Xml.Type_table.qname tt) (Xml.Dataguide.match_label g label) in
  (* A bare label names elements; "@" names attributes; a bare label that
     names no element falls back to the attribute. *)
  Alcotest.(check (list string)) "bare: the element" [ "r.year" ] (qnames "year");
  Alcotest.(check (list string)) "@year: the attribute" [ "r.e.@year" ] (qnames "@year");
  Alcotest.(check (list string)) "no element e.year" [ "r.e.@year" ] (qnames "e.year");
  Alcotest.(check (list string)) "no attribute r.@year" [] (qnames "r.@year")

let test_path_card_table1 () =
  (* Path cardinalities on Fig. 1(a): the Table I computation. *)
  let g = guide_of Workloads.Figures.instance_a in
  let author = find g "author" and title = find g "title" in
  let publisher = find g "publisher" in
  let pc a b = Xml.Dataguide.path_card g a b in
  (* From author up to book and down to title: 1..1. *)
  Alcotest.check card "author->title" Card.one (pc author title);
  (* From title down through book to author: 1..2 authors per book. *)
  Alcotest.check card "title->author" (Card.v 1 2) (pc title author);
  Alcotest.check card "publisher->title" Card.one (pc publisher title);
  Alcotest.check card "author->publisher" Card.one (pc author publisher);
  (* Root to leaf multiplies: data->author = 2..2 books x 1..2 authors. *)
  let data = Xml.Dataguide.root g in
  Alcotest.check card "data->author" (Card.v 2 4) (pc data author);
  (* Up the shape is always 1..1 (Def. 6). *)
  Alcotest.check card "author->data" Card.one (pc author data);
  Alcotest.check card "self" Card.one (pc author author)

let test_type_distance () =
  let g = guide_of Workloads.Figures.instance_a in
  Alcotest.(check int) "author-title" 2
    (Xml.Dataguide.type_distance g (find g "author") (find g "title"));
  Alcotest.(check int) "name-name" 4
    (Xml.Dataguide.type_distance g (find g "author.name") (find g "publisher.name"))

let test_make_roundtrip () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_b in
  let g = Xml.Dataguide.of_doc doc in
  let tt = Xml.Dataguide.types g in
  let n = Xml.Type_table.count tt in
  let cards = Array.init n (Xml.Dataguide.card g) in
  let counts = Array.init n (Xml.Dataguide.instance_count g) in
  let g2 =
    Xml.Dataguide.make ~types:tt ~roots:(Xml.Dataguide.roots g) ~cards ~counts
  in
  List.iter
    (fun ty ->
      Alcotest.check card "same card" (Xml.Dataguide.card g ty) (Xml.Dataguide.card g2 ty))
    (Xml.Dataguide.all_types g)

let prop_cards_sound =
  QCheck2.Test.make ~name:"adornments bound observed child counts" ~count:200
    Gen.gen_doc (fun doc ->
      let g = Xml.Dataguide.of_doc doc in
      let ok = ref true in
      for i = 0 to Xml.Doc.node_count doc - 1 do
        let n = Xml.Doc.node doc i in
        let tally = Hashtbl.create 8 in
        Array.iter
          (fun ci ->
            let ty = (Xml.Doc.node doc ci).type_id in
            Hashtbl.replace tally ty (1 + Option.value ~default:0 (Hashtbl.find_opt tally ty)))
          n.children;
        List.iter
          (fun cty ->
            let c = Option.value ~default:0 (Hashtbl.find_opt tally cty) in
            let card = Xml.Dataguide.card g cty in
            if c < card.Card.lo || not (Card.max_leq (Card.Bounded c) card.Card.hi)
            then ok := false)
          (Xml.Type_table.children (Xml.Dataguide.types g) n.type_id)
      done;
      !ok)

let prop_counts_sum_to_nodes =
  QCheck2.Test.make ~name:"instance counts sum to node count" ~count:200
    Gen.gen_doc (fun doc ->
      let g = Xml.Dataguide.of_doc doc in
      let total =
        List.fold_left
          (fun acc ty -> acc + Xml.Dataguide.instance_count g ty)
          0 (Xml.Dataguide.all_types g)
      in
      total = Xml.Doc.node_count doc)

let suite =
  [
    Alcotest.test_case "adornments on Fig. 1(a)" `Quick test_cards_fig_a;
    Alcotest.test_case "optional child 0..1" `Quick test_cards_optional;
    Alcotest.test_case "instance counts" `Quick test_instance_counts;
    Alcotest.test_case "label matching" `Quick test_match_label;
    Alcotest.test_case "attribute labels" `Quick test_match_label_attribute;
    Alcotest.test_case "path cardinality (Table I)" `Quick test_path_card_table1;
    Alcotest.test_case "shape type distance" `Quick test_type_distance;
    Alcotest.test_case "make roundtrip" `Quick test_make_roundtrip;
    QCheck_alcotest.to_alcotest prop_cards_sound;
    QCheck_alcotest.to_alcotest prop_counts_sum_to_nodes;
  ]

(* --- shape diffing --- *)

let test_shape_diff_identical () =
  let g = guide_of Workloads.Figures.instance_a in
  Alcotest.(check bool) "empty" true (Xml.Shape_diff.is_empty (Xml.Shape_diff.diff g g))

let test_shape_diff_add_remove () =
  let g1 = guide_of "<r><a>1</a></r>" in
  let g2 = guide_of "<r><b>2</b></r>" in
  let d = Xml.Shape_diff.diff g1 g2 in
  Alcotest.(check bool) "a removed" true
    (List.exists (function Xml.Shape_diff.Removed "r.a" -> true | _ -> false) d);
  Alcotest.(check bool) "b added" true
    (List.exists (function Xml.Shape_diff.Added "r.b" -> true | _ -> false) d)

let test_shape_diff_move () =
  let g1 = guide_of "<r><a><k>1</k></a><b/></r>" in
  let g2 = guide_of "<r><a/><b><k>1</k></b></r>" in
  let d = Xml.Shape_diff.diff g1 g2 in
  Alcotest.(check bool) "k moved" true
    (List.exists
       (function
         | Xml.Shape_diff.Moved { label = "k"; from_path = "r.a.k"; to_path = "r.b.k" } -> true
         | _ -> false)
       d)

let test_shape_diff_cardinality () =
  let g1 = guide_of "<r><a><k/></a></r>" in
  let g2 = guide_of "<r><a><k/><k/></a></r>" in
  let d = Xml.Shape_diff.diff g1 g2 in
  Alcotest.(check bool) "card change reported" true
    (List.exists
       (function Xml.Shape_diff.Card_changed { qname = "r.a.k"; _ } -> true | _ -> false)
       d)

let suite =
  suite
  @ [
      Alcotest.test_case "shape diff: identical" `Quick test_shape_diff_identical;
      Alcotest.test_case "shape diff: add/remove" `Quick test_shape_diff_add_remove;
      Alcotest.test_case "shape diff: moves" `Quick test_shape_diff_move;
      Alcotest.test_case "shape diff: cardinality" `Quick test_shape_diff_cardinality;
    ]

let prop_shape_diff_reflexive =
  QCheck2.Test.make ~name:"shape diff of a shape with itself is empty"
    ~count:150 Gen.gen_doc (fun doc ->
      let g = Xml.Dataguide.of_doc doc in
      Xml.Shape_diff.is_empty (Xml.Shape_diff.diff g g))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_shape_diff_reflexive ]
