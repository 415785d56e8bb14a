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

(* A path over [names]: child and descendant steps naming one of them,
   [*], or a name no target node has, some with a predicate, ending in
   an element step, text() or an attribute; bare, counted or joined. *)
let gen_path_query names =
  QCheck2.Gen.(
    let name = frequency [ (6, oneofl names); (1, return "nosuch") ] in
    let step =
      let* axis = oneofl [ "/"; "//" ] in
      let* test = frequency [ (5, name); (2, return "*") ] in
      let* pred =
        frequency
          [ (6, return "");
            (1, map (fun n -> "[" ^ n ^ "]") name);
            (1, map (fun n -> Printf.sprintf {|[%s = "hello"]|} n) name);
            (1, return "[1]") ]
      in
      return (axis ^ test ^ pred)
    in
    let* steps = list_size (int_range 1 3) step in
    let* last =
      frequency
        [ (4, return ""); (1, return "/text()"); (1, return "//text()");
          (2, map (fun n -> "/@" ^ n) name) ]
    in
    let path = String.concat "" steps ^ last in
    oneofl
      [ path; "count(" ^ path ^ ")"; Printf.sprintf {|string-join(%s, "|")|} path;
        "for $x in " ^ path ^ " return string($x)" ])

(* The output names a guard over [doc] can give: the document's labels,
   attributes without their [@], and the generated NEW names. *)
let output_names doc =
  let tt = Xml.Doc.types doc in
  let names = ref [ "wrap"; "extra"; "scribe" ] in
  Xml.Type_table.iter tt (fun ty ->
      let n = Xml.Label.strip_at (Xml.Type_table.label tt ty) in
      if not (List.mem n !names) then names := n :: !names);
  !names

let test_random_query_answers () =
  let compiled = ref 0 and queries = ref 0 and nonempty = ref 0 in
  let gen =
    QCheck2.Gen.(
      let* doc, guard = gen_guard_case in
      let* qs = list_size (return 6) (gen_path_query (output_names doc)) in
      return (doc, guard, qs))
  in
  let answer f =
    match f () with
    | v -> Ok (Xquery.Value.to_string v)
    | exception Guarded_query.Query_failed m -> Error m
    | exception Xquery.Eval.Error m -> Error m
  in
  let prop (doc, guard, qs) =
    let store = Store.Shredded.shred doc in
    match Logical.create ~enforce:false store ~guard with
    | exception _ -> true
    | lg ->
        incr compiled;
        List.for_all
          (fun query ->
            incr queries;
            let physical () =
              (Guarded_query.run_on_store ~enforce:false store { Guarded_query.guard; query })
                .Guarded_query.result
            in
            let a = answer (fun () -> Logical.query lg query) in
            if a <> Ok "" then incr nonempty;
            answer physical = a)
          qs
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"logical = physical on generated queries" ~count:500
       ~print:(fun (doc, g, qs) ->
         Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g ^ "\n" ^ String.concat "\n" qs)
       (* unshrunk, as above *)
       (QCheck2.Gen.no_shrink gen) prop);
  Printf.printf "%d compiled cases, %d queries, %d answers non-empty\n" !compiled !queries
    !nonempty;
  Alcotest.(check bool) "some cases compile" true (!compiled > 0);
  Alcotest.(check bool) "some answers are non-empty" true (!nonempty > 0)

(* Bytes a fresh store and navigation read answering [query] in situ. *)
let in_situ_reads doc guard query =
  let store = Store.Shredded.shred doc in
  let lg = Logical.create ~enforce:false store ~guard in
  Store.Io_stats.reset (Store.Shredded.stats store);
  ignore (Logical.query lg query);
  (Store.Io_stats.snapshot (Store.Shredded.stats store)).Store.Io_stats.bytes_read

(* A child step joins only the edge it names: the sibling edges of a bushy
   guard cost it nothing, and a name no target node has joins nothing. *)
let test_step_reads_named_edge () =
  let doc = Workloads.Dblp.to_doc ~entries:300 () in
  let bushy = "MORPH article [ title year pages ]" in
  Alcotest.(check int) "/result/article[1]/pages reads no title or year row"
    (in_situ_reads doc "MORPH article [ pages ]" "/result/article[1]/pages")
    (in_situ_reads doc bushy "/result/article[1]/pages");
  Alcotest.(check int) "/result/article/nosuch reads no child row"
    (in_situ_reads doc bushy "count(/result/article)")
    (in_situ_reads doc bushy "/result/article/nosuch")

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
    Alcotest.test_case "logical = physical on generated queries" `Quick
      test_random_query_answers;
    Alcotest.test_case "a child step reads only the edge it names" `Quick
      test_step_reads_named_edge;
  ]

(* Minor words an in-situ answer allocates per item, counts that code
   placement cannot move.  DBLP 300 entries under MORPH author [ title
   [ year ] ], every query run once first so its edges are resolved;
   each figure is the difference of two queries, so parsing and the
   query's own scaffolding cancel: the root stream against a bound that
   keeps nothing, a [/title] step against the stream alone, and returning
   the (non-leaf) titles against counting them.  On 64-bit OCaml 5 they
   read 57.2, 132.1 and 189.6 while the step stacked [Seq] adapters and
   [List.of_seq] and a returned node planned its subtree afresh; they now
   read 19.0, 44.1 and 46.6 (docs/PERFORMANCE.md).  [Gc.minor_words]
   boxes a float per call, a constant the differences cancel. *)
let test_words_per_item () =
  let store = Store.Shredded.shred (Workloads.Dblp.to_doc ~entries:300 ()) in
  let lg = Logical.create ~enforce:false store ~guard:"MORPH author [ title [ year ] ]" in
  let words q =
    ignore (Logical.query lg q);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Logical.query lg q));
    Gc.minor_words () -. before
  in
  let count q =
    match Logical.query lg q with
    | [ Xquery.Value.Num n ] -> n
    | _ -> Alcotest.fail ("not a count: " ^ q)
  in
  let authors = count "count(/result/author)" and titles = count "count(/result/author/title)" in
  let all = "/result/author[position() <= 100000]" in
  let root = (words ("count(" ^ all ^ ")") -. words "count(/result/author[position() <= 0])") /. authors in
  let step = (words ("count(" ^ all ^ "/title)") -. words ("count(" ^ all ^ ")")) /. authors in
  let returned = (words (all ^ "/title") -. words ("count(" ^ all ^ "/title)")) /. titles in
  Printf.printf
    "%.0f authors, %.0f titles; minor words: root stream %.1f per author, /title step %.1f \
     per author, returned title %.1f per title\n"
    authors titles root step returned;
  let over =
    List.filter_map
      (fun (what, v, limit) ->
        if v > limit then Some (Printf.sprintf "%s %.1f (bound %.0f)" what v limit) else None)
      [ ("root stream", root, 24.); ("/title step", step, 55.); ("returned title", returned, 60.) ]
  in
  if over <> [] then Alcotest.failf "minor words per item: %s" (String.concat ", " over)

let suite = suite @ [ Alcotest.test_case "minor words per in-situ item bounded" `Quick test_words_per_item ]
