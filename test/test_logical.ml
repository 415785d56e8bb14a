open Guarded

let logical_of src guard =
  let store = Store.Shredded.shred (Xml.Doc.of_string src) in
  (store, Logical.create ~enforce:false store ~guard)

let physical src guard query =
  let doc = Xml.Doc.of_string src in
  let outcome = Guarded_query.run ~enforce:false doc { Guarded_query.guard; query } in
  Xquery.Value.to_string outcome.Guarded_query.result

let check_same ?(src = Workloads.Figures.instance_a) guard query =
  let _, lg = logical_of src guard in
  let logical_result = Xquery.Value.to_string (Logical.query lg query) in
  Alcotest.(check string)
    (guard ^ " / " ^ query)
    (physical src guard query)
    logical_result

let test_agrees_with_physical () =
  let g = Workloads.Figures.example_guard in
  List.iter
    (fun q -> check_same g q)
    [
      "count(//author)";
      "//author/name/text()";
      "/author/book/title";
      "distinct-values(//name)";
      "for $a in //author return <row>{$a/name/text()}{$a/book/title}</row>";
      "for $a in //author where $a/book/title = \"Y\" return $a/name/text()";
      "//book[title = \"X\"]/title/text()";
      "count(//author[name = \"A\"])";
      "for $n in //name order by $n return $n/text()";
      "string(//author[1]/name)";
    ];
  (* Descendants come out in document order, not level by level. *)
  let nested = "<r><a><n>1</n><a><n>2</n></a></a><a><n>3</n></a></r>" in
  check_same ~src:nested "MUTATE r" "//a/n/text()";
  (* Untyped values compare as strings, not as numbers. *)
  let untyped = "<r><e><v>1.0</v><w>1</w></e><e><v>x</v><w>01</w></e></r>" in
  check_same ~src:untyped "MUTATE r" {|count(//e[w = "1"])|};
  check_same ~src:untyped "MUTATE r" "//v = //w"

let test_agrees_on_all_instances () =
  List.iter
    (fun src ->
      check_same ~src Workloads.Figures.example_guard "//author/name/text()";
      check_same ~src Workloads.Figures.example_guard
        "for $a in //author return count($a/book)")
    [
      Workloads.Figures.instance_a; Workloads.Figures.instance_b;
      Workloads.Figures.instance_c;
    ]

let test_mutate_guard () =
  check_same "MUTATE data" "count(//name)";
  check_same "MUTATE book [ publisher [ name ] ]" "//book/publisher/name/text()"

let test_attributes_virtual () =
  let src = {|<r><e year="1999"><v>one</v></e><e year="2000"><v>two</v></e></r>|} in
  check_same ~src "MORPH e [ @year v ]" "//e/@year";
  check_same ~src "MORPH e [ @year v ]" {|//e[@year = "2000"]/v/text()|}

let test_new_nodes_virtual () =
  check_same "MUTATE (NEW scribe) [ author ]" "count(//scribe)";
  check_same "MUTATE (NEW scribe) [ author ]" "//scribe/author/name/text()"

let test_restrict_virtual () =
  check_same "MORPH (RESTRICT name [ author ]) [ title ]" "count(//name)"

let test_selective_query_reads_less () =
  (* The point of architecture 3: a selective query over the virtual
     document reads less from the store than a full physical render. *)
  let doc = Workloads.Dblp.to_doc ~entries:800 () in
  let guard = "MORPH author [title [year]]" in
  (* Physical: render everything. *)
  let store1 = Store.Shredded.shred doc in
  Store.Io_stats.reset (Store.Shredded.stats store1);
  let compiled = Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store1) guard in
  let buf = Buffer.create 4096 in
  ignore (Xmorph.Interp.render_to_buffer store1 compiled buf);
  let physical_reads =
    (Store.Io_stats.snapshot (Store.Shredded.stats store1)).Store.Io_stats.bytes_read
  in
  (* Logical: one author's titles. *)
  let store2 = Store.Shredded.shred doc in
  let lg = Logical.create ~enforce:false store2 ~guard in
  Store.Io_stats.reset (Store.Shredded.stats store2);
  let r = Logical.query lg "//author[1]/title/text()" in
  let logical_reads =
    (Store.Io_stats.snapshot (Store.Shredded.stats store2)).Store.Io_stats.bytes_read
  in
  Alcotest.(check bool) "query returned something" true (r <> []);
  Alcotest.(check bool)
    (Printf.sprintf "logical reads (%d) < physical reads (%d)" logical_reads
       physical_reads)
    true
    (logical_reads < physical_reads)

let test_unknown_function_errors () =
  let _, lg = logical_of Workloads.Figures.instance_a "MORPH author [ name ]" in
  let message f =
    match f "frobnicate(1)" with
    | exception Xquery.Eval.Error m -> m
    | _ -> Alcotest.fail "expected error"
  in
  let physical = message (Xquery.Eval.run (Xml.Tree.element "r" [])) in
  Alcotest.(check string) "physical message" "unknown function frobnicate()"
    physical;
  Alcotest.(check string) "same message from both" physical
    (message (Logical.query lg))

let prop_identity_guard_answers =
  QCheck2.Test.make
    ~name:"logical = physical on count, name, string (identity MUTATE)"
    ~count:50 Gen.gen_doc (fun doc ->
      let guide = Xml.Dataguide.of_doc doc in
      let root_label =
        Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
      in
      let guard = "MUTATE " ^ root_label in
      let store = Store.Shredded.shred doc in
      let lg = Logical.create ~enforce:false store ~guard in
      let tree, _ = Xmorph.Interp.transform_doc ~enforce:false doc guard in
      List.for_all
        (fun q ->
          Xquery.Value.to_string (Logical.query lg q)
          = Xquery.Value.to_string (Xquery.Eval.run tree q))
        [
          "count(//*)";
          "for $x in //* return name($x)";
          "for $x in //* return string($x)";
        ])

let test_new_parent_attribute () =
  let src =
    {|<lib><book year="1999"><title>A</title></book><book year="2001"><title>B</title></book></lib>|}
  in
  List.iter
    (fun guard ->
      List.iter (check_same ~src guard)
        [ "//x/year"; "//x/@year"; "string(//x[1])"; "count(//x/year)" ])
    [ "MORPH book [ (NEW x) [ @year ] ]"; "MORPH book [ (NEW x) [ @year title ] ]" ]

(* Instances of a NEW parent with exactly one instance of an attribute-typed
   leaf below: the render writes that child as an element. *)
let rec new_parent_attributes tt nav h id =
  List.fold_left
    (fun n (c, kids) ->
      let node = c.Xmorph.Render.node in
      let hit =
        h.Xmorph.Render.node.Xmorph.Tshape.source = None
        && Array.length kids = 1 && node.Xmorph.Tshape.children = []
        && Option.fold ~none:false ~some:(Xml.Type_table.is_attribute tt) node.source
      in
      Array.fold_left
        (fun n k -> n + new_parent_attributes tt nav c k)
        (if hit then n + 1 else n)
        kids)
    0
    (Xmorph.Render.Nav.children nav h id)

(* A random document with the guard vocabulary of its own labels. *)
let gen_doc_vocab =
  QCheck2.Gen.(
    let* doc = Gen.gen_doc in
    let tt = Xml.Doc.types doc in
    let labels = ref [] in
    Xml.Type_table.iter tt (fun ty ->
        labels := Xml.Type_table.label tt ty :: Xml.Type_table.qname tt ty :: !labels);
    return
      ( doc,
        { Test_guard_prop.label = oneofl !labels; literal = oneofl [ "hello"; "1984" ];
          order_by = true } ))

(* A random document with a random guard over its own labels. *)
let gen_guard_case =
  QCheck2.Gen.(
    let* doc, vocab = gen_doc_vocab in
    let* guard = Test_guard_prop.gen_guard_over vocab in
    return (doc, Xmorph.Ast.to_string guard))

(* A random document with a guard whose roots are sorted: the root run of
   the virtual document is an ORDER-BY selection. *)
let gen_sorted_root_case =
  QCheck2.Gen.(
    let* doc, vocab = gen_doc_vocab in
    let* p = Test_guard_prop.gen_pattern vocab 2 in
    let* key = vocab.Test_guard_prop.label in
    let* desc = bool in
    let root = Xmorph.Ast.Order_by (p, key, desc) in
    return (doc, Xmorph.Ast.to_string (Xmorph.Ast.Stage (Xmorph.Ast.Morph [ root ]))))

let test_random_guard_answers () =
  let compiled = ref 0 and new_attrs = ref 0 in
  let gen = gen_guard_case in
  let prop (doc, guard) =
    let store = Store.Shredded.shred doc in
    match Logical.create ~enforce:false store ~guard with
    | exception _ -> true
    | lg ->
        incr compiled;
        let shape =
          (Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard)
            .Xmorph.Interp.shape
        in
        let nav = Xmorph.Render.Nav.create store shape in
        List.iter
          (fun (h, ids) ->
            Array.iter
              (fun id ->
                new_attrs := !new_attrs + new_parent_attributes (Xml.Doc.types doc) nav h id)
              ids)
          (Xmorph.Render.Nav.roots nav);
        List.for_all
          (fun query ->
            let physical =
              Guarded_query.run_on_store ~enforce:false store { Guarded_query.guard; query }
            in
            Xquery.Value.to_string (Logical.query lg query)
            = Xquery.Value.to_string physical.Guarded_query.result)
          [ "count(//*)"; "string(/*)"; "//*[1]"; "for $x in //* return name($x)";
            "for $x in //* return string($x)" ]
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"logical = physical on random guards" ~count:300
       ~print:(fun (doc, g) -> Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g)
       (* unshrunk: shrinking a document and a guard together runs for
          minutes, and the failing pair prints small enough *)
       (QCheck2.Gen.no_shrink gen) prop);
  Alcotest.(check bool)
    (Printf.sprintf "%d compiled cases, %d NEW-parent single-attribute instances" !compiled
       !new_attrs)
    true (!new_attrs > 0)

(* The bounded child step agrees with the per-item predicate over the
   virtual document too, the root run included, sorted or not. *)
let test_bound_oracle () =
  let pairs = ref 0 and nonempty = ref 0 and sorted = ref 0 in
  let gen =
    QCheck2.Gen.(
      let* is_sorted, (doc, guard) =
        oneof
          [ map (fun c -> (false, c)) gen_guard_case;
            map (fun c -> (true, c)) gen_sorted_root_case ]
      in
      let* pick = int_range 0 9 in
      let* operand = oneofl Test_xquery.bound_operands in
      return (is_sorted, doc, guard, pick, operand))
  in
  let prop (is_sorted, doc, guard, pick, operand) =
    match Logical.create ~enforce:false (Store.Shredded.shred doc) ~guard with
    | exception _ -> true
    | lg ->
        if is_sorted then incr sorted;
        let run q = Logical.query lg q in
        let n =
          List.fold_left
            (fun m it ->
              match it with Xquery.Value.Num f -> max m (int_of_float f) | _ -> m)
            0
            (run "(count(/*), count(/*/*), for $x in //* return count($x/*))")
        in
        let value = List.nth (Test_xquery.bound_values n) pick in
        Test_xquery.check_bound_pairs ~run ~pairs ~nonempty
          (Test_xquery.bound_queries ~paths:[ "/*"; "/*/*"; "//*/*"; "//*/text()" ] ~operand
             value);
        true
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"bounded step = per-item predicate (virtual)" ~count:300
       ~print:(fun (_, doc, g, _, o) ->
         Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g ^ "\noperand " ^ o)
       (* unshrunk, as above *)
       (QCheck2.Gen.no_shrink gen) prop);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d bounded answers non-empty" !nonempty !pairs)
    true (!nonempty > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d sorted-root guards compiled" !sorted)
    true (!sorted > 0)

let suite =
  [
    Alcotest.test_case "agrees with physical (query battery)" `Quick
      test_agrees_with_physical;
    Alcotest.test_case "agrees on all Figure-1 instances" `Quick
      test_agrees_on_all_instances;
    Alcotest.test_case "MUTATE guards" `Quick test_mutate_guard;
    Alcotest.test_case "virtual attributes" `Quick test_attributes_virtual;
    Alcotest.test_case "virtual NEW nodes" `Quick test_new_nodes_virtual;
    Alcotest.test_case "virtual RESTRICT" `Quick test_restrict_virtual;
    Alcotest.test_case "selective query reads less (arch 3)" `Quick
      test_selective_query_reads_less;
    Alcotest.test_case "unknown function" `Quick test_unknown_function_errors;
    QCheck_alcotest.to_alcotest prop_identity_guard_answers;
    Alcotest.test_case "NEW parent over an attribute" `Quick test_new_parent_attribute;
    Alcotest.test_case "logical = physical on random guards" `Quick
      test_random_guard_answers;
    Alcotest.test_case "bounded step = per-item predicate (virtual)" `Quick
      test_bound_oracle;
  ]
