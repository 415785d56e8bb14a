open Xmorph

let fig_a = Workloads.Figures.instance_a

let render_str ?(src = fig_a) guard =
  let tree, _ = Interp.transform_doc ~enforce:false (Xml.Doc.of_string src) guard in
  Xml.Printer.to_string tree

let test_parses () =
  match Parse.guard "MORPH author [ name ] ORDER-BY name" with
  | Ast.Stage (Ast.Morph [ Ast.Order_by (Ast.Tree _, "name", false) ]) -> ()
  | other -> Alcotest.failf "unexpected AST: %s" (Ast.to_string other)

let test_pp_roundtrip () =
  let src = "MORPH author [ name ] ORDER-BY name" in
  let printed = Ast.to_string (Parse.guard src) in
  Alcotest.(check string) "stable" printed (Ast.to_string (Parse.guard printed))

let test_orders_roots () =
  let s = render_str "MORPH author [ name ] ORDER-BY name" in
  (* Document order is A, B, A; sorted by name: A, A, B. *)
  let expected = "<result><author><name>A</name></author><author><name>A</name></author><author><name>B</name></author></result>" in
  Alcotest.(check string) "sorted ascending" expected s

let test_orders_descending () =
  let s = render_str "MORPH author [ name ] ORDER-BY name desc" in
  let expected = "<result><author><name>B</name></author><author><name>A</name></author><author><name>A</name></author></result>" in
  Alcotest.(check string) "sorted descending" expected s

let test_orders_children () =
  (* Sort books under data by their title, descending. *)
  let s = render_str "MORPH data [ book [ title ] ORDER-BY title desc ]" in
  Alcotest.(check string) "children sorted"
    "<data><book><title>Y</title></book><book><title>X</title></book></data>" s

let test_order_by_own_value () =
  let src = "<r><k>c</k><k>a</k><k>b</k></r>" in
  let s = render_str ~src "MORPH k ORDER-BY k" in
  Alcotest.(check string) "self-keyed"
    "<result><k>a</k><k>b</k><k>c</k></result>" s

let test_streaming_agrees () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      "MORPH author [ name ] ORDER-BY name desc"
  in
  let b1 = Buffer.create 64 and b2 = Buffer.create 64 in
  ignore (Render.stream store compiled.Interp.shape (Buffer.add_string b1));
  ignore (Render.to_buffer store compiled.Interp.shape b2);
  Alcotest.(check string) "stream = materialized" (Buffer.contents b2) (Buffer.contents b1)

let test_loss_unaffected () =
  let doc = Xml.Doc.of_string fig_a in
  let _, plain = Interp.transform_doc ~enforce:false doc "MORPH author [ name ]" in
  let _, ordered =
    Interp.transform_doc ~enforce:false doc "MORPH author [ name ] ORDER-BY name"
  in
  Alcotest.(check string) "same classification"
    (Report.classification_to_string plain.Interp.loss.Report.classification)
    (Report.classification_to_string ordered.Interp.loss.Report.classification)

let test_quantify_unaffected () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      "MORPH author [ name book [ title ] ] ORDER-BY name desc"
  in
  let m = Quantify.measure store compiled.Interp.shape in
  Alcotest.(check bool) "still reversible" true m.Quantify.reversible

let test_logical_sees_order () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let lg =
    Guarded.Logical.create ~enforce:false store
      ~guard:"MORPH author [ name ] ORDER-BY name desc"
  in
  Alcotest.(check string) "first author is B" "B"
    (Xquery.Value.to_string (Guarded.Logical.query lg "string(/result/author[1]/name)"))

let suite =
  [
    Alcotest.test_case "parses" `Quick test_parses;
    Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
    Alcotest.test_case "orders root instances" `Quick test_orders_roots;
    Alcotest.test_case "descending" `Quick test_orders_descending;
    Alcotest.test_case "orders nested children" `Quick test_orders_children;
    Alcotest.test_case "self-keyed ordering" `Quick test_order_by_own_value;
    Alcotest.test_case "streaming agrees" `Quick test_streaming_agrees;
    Alcotest.test_case "loss analysis unaffected" `Quick test_loss_unaffected;
    Alcotest.test_case "quantify unaffected" `Quick test_quantify_unaffected;
    Alcotest.test_case "logical evaluator sees order" `Quick test_logical_sees_order;
  ]
