open Xmorph

let fig_a = Workloads.Figures.instance_a

let transform ?(src = fig_a) guard =
  let doc = Xml.Doc.of_string src in
  Interp.transform_doc ~enforce:false doc guard

let render_str ?src guard =
  let tree, _ = transform ?src guard in
  Xml.Printer.to_string tree

let test_paper_typefill_mutate () =
  (* The Sec. III example: CAST-WIDENING (TYPE-FILL MUTATE author [ title ])
     on data where title exists moves titles under authors; where it does
     not, a fresh empty type is filled in. *)
  let src = {|<data><author><name>A</name></author></data>|} in
  let s = render_str ~src "CAST (TYPE-FILL MUTATE author [ title ])" in
  Alcotest.(check bool) "filled title present" true (Tutil.contains s "<title/>");
  (* And with titles present, they move. *)
  let s2 = render_str "CAST (MUTATE author [ title ])" in
  Alcotest.(check bool) "title under author" true
    (Tutil.contains s2 "<name>A</name><title>X</title>")

let test_clone_tree_pattern () =
  let s = render_str "MORPH book [ title ] author [ (CLONE book [ title ]) ]" in
  (* Books appear standalone and cloned under authors. *)
  Alcotest.(check bool) "standalone" true (Tutil.contains s "<book><title>X</title></book>");
  Alcotest.(check bool) "cloned under author" true
    (Tutil.contains s "<author><book>")

let test_nested_restrict () =
  (* Publishers that published a book having author B, keeping the
     publisher's name visible. *)
  let s =
    render_str
      {|MORPH (RESTRICT publisher [ book [ author [ name = "B" ] ] ]) [ publisher.name ]|}
  in
  (* Only book X has author B; its publisher is W. *)
  Alcotest.(check bool) "W kept" true (Tutil.contains s "<name>W</name>");
  Alcotest.(check bool) "V dropped" false (Tutil.contains s "<name>V</name>")

let test_translate_multiple_pairs () =
  let s = render_str "MORPH author [ name ] | TRANSLATE author -> writer, name -> moniker" in
  Alcotest.(check bool) "writer" true (Tutil.contains s "<writer>");
  Alcotest.(check bool) "moniker" true (Tutil.contains s "<moniker>")

let test_translate_then_mutate () =
  (* Renamed labels must drive later stages. *)
  let s =
    render_str
      "TRANSLATE publisher -> imprint | MORPH imprint [ imprint.name ]"
  in
  Alcotest.(check bool) "imprint rendered" true (Tutil.contains s "<imprint>")

let test_four_stage_compose () =
  let s =
    render_str
      "MORPH author [ name book [ title ] ] | MUTATE (DROP name) | TRANSLATE \
       author -> a | MUTATE title [ a ]"
  in
  Alcotest.(check bool) "a under title" true (Tutil.contains s "<title>X<a>")

let test_attribute_move () =
  let src = {|<r><e year="1999"><v>one</v></e></r>|} in
  (* Hoist the attribute to a sibling of v. *)
  let s = render_str ~src "MUTATE e [ @year v ]" in
  Alcotest.(check bool) "attribute stays attribute" true
    (Tutil.contains s {|year="1999"|});
  (* Reshape the attribute above the element: forced into element form. *)
  let s2 = render_str ~src "MORPH year [ v ]" in
  Alcotest.(check bool) "element form" true (Tutil.contains s2 "<year>1999");
  Alcotest.(check bool) "child v" true (Tutil.contains s2 "<v>one</v>")

let test_value_filter_with_restrict () =
  let s =
    render_str
      {|MORPH (RESTRICT book [ author [ name = "B" ] ]) [ title ]|}
  in
  Alcotest.(check bool) "book X kept" true (Tutil.contains s "<title>X</title>");
  Alcotest.(check bool) "book Y dropped" false (Tutil.contains s "<title>Y</title>")

let test_children_of_attribute_parent () =
  let src = {|<r><e year="1999"><v>one</v><w>two</w></e></r>|} in
  let s = render_str ~src "MORPH e [*]" in
  List.iter
    (fun frag -> Alcotest.(check bool) frag true (Tutil.contains s frag))
    [ {|year="1999"|}; "<v>one</v>"; "<w>two</w>" ]

let test_mutate_star_noop () =
  (* Stars are no-ops inside MUTATE; shape unchanged. *)
  let a = render_str "MUTATE data" in
  let b = render_str "MUTATE data [ * ]" in
  Alcotest.(check string) "identical" a b

let test_new_nested_in_morph () =
  let s = render_str "MORPH (NEW shelf) [ book [ title ] ]" in
  Alcotest.(check bool) "shelf wraps book" true
    (Tutil.contains s "<shelf><book>");
  (* One shelf per book instance. *)
  let count = ref 0 in
  String.iteri
    (fun i c ->
      if c = 's' && i + 5 < String.length s && String.sub s i 5 = "shelf" then incr count)
    s;
  Alcotest.(check bool) "two shelves (open+close each)" true (!count >= 4)

let test_tie_warning () =
  (* Two parents equally close to a child produce a warning, not an error. *)
  let src = {|<r><p><k>1</k></p><q><k>2</k></q><x>v</x></r>|} in
  let _, compiled = transform ~src "MORPH p q [ x ]" in
  ignore compiled;
  (* p and q are both at distance 2 from x. *)
  Alcotest.(check bool) "warned or attached" true
    (compiled.Interp.loss.Report.warnings <> []
    || Xml.Tree.count_elements (fst (transform ~src "MORPH p q [ x ]")) > 0)

let test_empty_result_types () =
  (* A guard over a type with zero surviving instances renders nothing but
     does not fail. *)
  let s = render_str {|MORPH author [ name = "NOBODY" ]|} in
  Alcotest.(check bool) "authors still render" true (Tutil.contains s "<author");
  Alcotest.(check bool) "no names" false (Tutil.contains s "<name>")

let test_deep_dotted_disambiguation () =
  let s = render_str "MORPH publisher [ publisher.name ]" in
  Alcotest.(check bool) "publisher names only" true (Tutil.contains s "<name>W</name>");
  Alcotest.(check bool) "author names excluded" false (Tutil.contains s "<name>A</name>")

let test_child_label_skips_parent_type () =
  (* Under a.x1 the label x1 names a.x1 itself and the nested a.x1.x1; a
     child never pairs with its parent's own type, so the nested one is
     attached, here and inside a RESTRICT pattern alike. *)
  let src = "<a><x1><x1/></x1><x1/></a>" in
  Alcotest.(check string) "nested x1 attached" "<result><x1><x1/></x1><x1/></result>"
    (render_str ~src "MORPH a.x1 [ x1 ]");
  Alcotest.(check string) "restrict needs a nested x1" "<a><x1/></a>"
    (render_str ~src "MORPH a [ RESTRICT (a.x1 [ x1 ]) ]")

let test_guard_reports_have_every_stage () =
  let _, compiled =
    transform "MORPH author [ name ] | TRANSLATE author -> writer | MUTATE (DROP name)"
  in
  let labels = List.map (fun b -> b.Report.label) compiled.Interp.labels in
  Alcotest.(check bool) "author bound" true (List.mem "author" labels);
  Alcotest.(check bool) "translate bound" true
    (List.length (List.filter (fun l -> l = "author") labels) >= 2);
  Alcotest.(check bool) "drop bound" true (List.mem "name" labels)

let suite =
  [
    Alcotest.test_case "TYPE-FILL MUTATE (paper example)" `Quick test_paper_typefill_mutate;
    Alcotest.test_case "CLONE of a tree pattern" `Quick test_clone_tree_pattern;
    Alcotest.test_case "nested RESTRICT with value filter" `Quick test_nested_restrict;
    Alcotest.test_case "TRANSLATE multiple pairs" `Quick test_translate_multiple_pairs;
    Alcotest.test_case "TRANSLATE drives later stages" `Quick test_translate_then_mutate;
    Alcotest.test_case "four-stage compose" `Quick test_four_stage_compose;
    Alcotest.test_case "attribute moves" `Quick test_attribute_move;
    Alcotest.test_case "value filter inside RESTRICT" `Quick test_value_filter_with_restrict;
    Alcotest.test_case "CHILDREN includes attributes" `Quick test_children_of_attribute_parent;
    Alcotest.test_case "stars are MUTATE no-ops" `Quick test_mutate_star_noop;
    Alcotest.test_case "NEW wrapper in MORPH" `Quick test_new_nested_in_morph;
    Alcotest.test_case "closeness ties warn" `Quick test_tie_warning;
    Alcotest.test_case "empty filtered results" `Quick test_empty_result_types;
    Alcotest.test_case "deep dotted disambiguation" `Quick test_deep_dotted_disambiguation;
    Alcotest.test_case "child label skips its parent's type" `Quick
      test_child_label_skips_parent_type;
    Alcotest.test_case "reports across stages" `Quick test_guard_reports_have_every_stage;
  ]

(* --- degenerate documents --- *)

let test_single_element_doc () =
  let s = render_str ~src:"<only/>" "MUTATE only" in
  Alcotest.(check string) "identity on trivial doc" "<only/>" s;
  let s2 = render_str ~src:"<only/>" "MORPH only" in
  Alcotest.(check string) "morph on trivial doc" "<only/>" s2

let test_deep_document () =
  (* A 60-deep chain exercises Dewey/path machinery at depth. *)
  let b = Buffer.create 512 in
  for i = 0 to 59 do Buffer.add_string b (Printf.sprintf "<d%d>" i) done;
  Buffer.add_string b "x";
  for i = 59 downto 0 do Buffer.add_string b (Printf.sprintf "</d%d>" i) done;
  let src = Buffer.contents b in
  let s = render_str ~src "MORPH d0 [ d59 ]" in
  Alcotest.(check bool) "deep leaf hoisted" true (Tutil.contains s "<d59>x</d59>")

let test_wide_document () =
  let src =
    "<r>" ^ String.concat "" (List.init 500 (fun i -> Printf.sprintf "<k>%d</k>" i)) ^ "</r>"
  in
  let s = render_str ~src "MORPH r [ k ]" in
  Alcotest.(check bool) "all kept" true (Tutil.contains s "<k>499</k>")

let test_unicode_content () =
  let src = "<r><name>æøå 中文 🌲</name></r>" in
  let s = render_str ~src "MORPH name" in
  Alcotest.(check bool) "utf8 preserved" true (Tutil.contains s "中文 🌲")

let suite =
  suite
  @ [
      Alcotest.test_case "single-element document" `Quick test_single_element_doc;
      Alcotest.test_case "deep document" `Quick test_deep_document;
      Alcotest.test_case "wide document" `Quick test_wide_document;
      Alcotest.test_case "unicode content" `Quick test_unicode_content;
    ]
