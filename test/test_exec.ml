(* Served bodies against the path they replaced.  [Exec.execute] writes a
   transform's body with one emit walk and answers a query in situ; the
   reference is the rendered tree ([Interp.render]) printed by the
   recursive printers kept in [Test_xml.Reference], and the physical
   guarded query ([Guarded_query.run_on_store]).  Bodies are compared
   byte for byte, compact and indented, and the query record's
   [out_nodes] against [Xml.Tree.count_nodes]. *)

let fig_a = Workloads.Figures.instance_a

(* One execution handed a request context, whose finished record keeps
   the execution's query-log record. *)
let execute ?query ~compact store guard =
  let ctx = Xmobs.Ctx.create () in
  let outcome =
    Xmserve.Exec.execute ~ctx ~source:"test" ~enforce:false ~compact ?query store guard
  in
  match Xmobs.Ctx.finish ctx ~label:"test" ~outcome:"ok" ~status:200 ~wall_s:0. with
  | { Xmobs.Ctx.c_qlog = Some e; _ } -> (outcome, e)
  | _ -> Alcotest.fail "no query record"

(* The transform's bodies and out_nodes in both modes; returns the
   reference tree for the named cases' own checks. *)
let check_transform label doc guard =
  let store = Store.Shredded.shred doc in
  let compiled = Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard in
  let tree = Xmorph.Interp.render store compiled in
  List.iter
    (fun compact ->
      let want =
        if compact then Test_xml.Reference.to_string tree ^ "\n"
        else Test_xml.Reference.to_string_indented tree
      in
      let mode = if compact then " (compact)" else " (indented)" in
      match execute ~compact store guard with
      | Xmserve.Exec.Rendered { body; _ }, e ->
          Alcotest.(check string) (label ^ mode) want body;
          Alcotest.(check int) (label ^ mode ^ " out_nodes")
            (Xml.Tree.count_nodes tree) e.Xmobs.Qlog.out_nodes
      | Xmserve.Exec.Failed { message; _ }, _ -> Alcotest.failf "%s: %s" label message
      | Xmserve.Exec.Query_result _, _ -> Alcotest.failf "%s: a query result" label)
    [ true; false ];
  tree

let figure_instances =
  [ ("(a)", Workloads.Figures.instance_a); ("(b)", Workloads.Figures.instance_b);
    ("(c)", Workloads.Figures.instance_c) ]

let test_figure_instances () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun guard ->
          ignore (check_transform (name ^ " " ^ guard) (Xml.Doc.of_string src) guard))
        [ Workloads.Figures.example_guard; Workloads.Figures.widening_guard; "MUTATE data";
          "MORPH name [ title ]"; "MORPH publisher [ name ]" ])
    figure_instances

let workload_docs =
  [
    ("xmark", lazy (Workloads.Xmark.to_doc ~seed:5 ~factor:0.005 ()),
     Workloads.Shapes.Xmark_data, "MUTATE site");
    ("dblp", lazy (Workloads.Dblp.to_doc ~seed:5 ~entries:300 ()),
     Workloads.Shapes.Dblp_data, "MUTATE dblp");
    ("nasa", lazy (Workloads.Nasa.to_doc ~seed:5 ~datasets:30 ()),
     Workloads.Shapes.Nasa_data, "MUTATE datasets");
  ]

let test_workloads () =
  List.iter
    (fun (name, doc, dataset, identity) ->
      List.iter
        (fun guard -> ignore (check_transform (name ^ " " ^ guard) (Lazy.force doc) guard))
        (List.map (Workloads.Shapes.guard dataset) Workloads.Shapes.kinds @ [ identity ]))
    workload_docs

let is_element = function Xml.Tree.Element _ -> true | Xml.Tree.Text _ -> false

let test_multi_root_forest () =
  match check_transform "forest" (Xml.Doc.of_string fig_a) "MORPH author [ name ]" with
  | Xml.Tree.Element { name = "result"; children; _ } ->
      Alcotest.(check bool) "several roots" true (List.length children > 1)
  | _ -> Alcotest.fail "a forest is wrapped in <result>"

let test_empty_forest () =
  let guard = {|MORPH (RESTRICT author [ name = "Nobody" ]) [ name ]|} in
  let tree = check_transform "empty forest" (Xml.Doc.of_string fig_a) guard in
  Alcotest.(check string) "wrapper only" "<result/>" (Test_xml.Reference.to_string tree)

let test_attribute_children () =
  let src =
    {|<data><book year="1999" lang="en"><title>T &amp; U</title></book><book year="2000"><title>V</title></book></data>|}
  in
  let tree = check_transform "attributes" (Xml.Doc.of_string src) "MORPH book [ @year @lang title ]" in
  let rec has_attrs = function
    | Xml.Tree.Element { attrs = _ :: _; _ } -> true
    | Xml.Tree.Element { children; _ } -> List.exists has_attrs children
    | Xml.Tree.Text _ -> false
  in
  Alcotest.(check bool) "attribute-shaped children" true (has_attrs tree)

let test_mixed_content () =
  let tree = check_transform "mixed" (Xml.Doc.of_string fig_a) "MORPH name [ title ]" in
  let rec mixed = function
    | Xml.Tree.Element { children; _ } ->
        (List.exists is_element children && List.exists (Fun.negate is_element) children)
        || List.exists mixed children
    | Xml.Tree.Text _ -> false
  in
  Alcotest.(check bool) "text and element children" true (mixed tree)

(* ---------- queries ---------- *)

(* The physical answer as [xmorph query] printed it: one compact line per
   result tree, or the failure message. *)
let physical_answer store guard query =
  match
    Guarded.Guarded_query.run_on_store ~enforce:false store { Guarded.Guarded_query.guard; query }
  with
  | o ->
      Ok
        ( String.concat ""
            (List.map (fun t -> Test_xml.Reference.to_string t ^ "\n") o.result_xml),
          List.fold_left (fun n t -> n + Xml.Tree.count_nodes t) 0 o.result_xml )
  | exception Guarded.Guarded_query.Query_failed m -> Error m

let exec_answer store guard query =
  match execute ~compact:false ~query store guard with
  | Xmserve.Exec.Query_result { body; _ }, e -> Ok (body, e.Xmobs.Qlog.out_nodes)
  | Xmserve.Exec.Failed { kind = Xmobs.Qlog.Parse_error; message }, _ -> Error message
  | Xmserve.Exec.Failed { message; _ }, _ -> Error ("unexpected failure: " ^ message)
  | Xmserve.Exec.Rendered _, _ -> Error "a transform body"

(* Queries over Figure-1 instance (a) under the paper's guard, a syntax
   error and an evaluation error among them; test_fuzz draws from these
   too. *)
let queries =
  [ Workloads.Figures.example_query; "count(//author)"; "/result/author[2]/name";
    "//title/text()"; "for $a in //author return <row a=\"{$a/name}\">{$a/book}</row>";
    "for $x in"; "frobnicate()" ]

let answer_testable =
  Alcotest.(result (pair string int) string)

let test_queries () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let guard = Workloads.Figures.example_guard in
  List.iter
    (fun q ->
      Alcotest.check answer_testable q (physical_answer store guard q) (exec_answer store guard q))
    queries

let test_query_failures () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let guard = Workloads.Figures.example_guard in
  let failed q =
    match exec_answer store guard q with
    | Error m -> m
    | Ok _ -> Alcotest.failf "%s answered" q
  in
  Alcotest.(check string) "eval error" "unknown function frobnicate()" (failed "frobnicate()");
  Alcotest.(check bool) "syntax error" true (String.length (failed "for $x in") > 0)

(* An explicit axis answers as its abbreviated step, in situ and on the
   physical architecture alike; a descendant step's position counts in
   the reshaped document's order, as XPath's descendant axis does. *)
let test_explicit_axes () =
  let store =
    Store.Shredded.shred
      (Xml.Doc.of_string
         "<data><record id=\"1\"><name>a</name><sub><name>a2</name></sub>\
          <name>a3</name></record><record id=\"2\"><name>b</name></record>\
          <record id=\"3\"><sub><name>c1</name></sub><name>c2</name></record>\
          </data>")
  in
  let guard = "MUTATE data" in
  let answer q =
    let physical = physical_answer store guard q in
    Alcotest.check answer_testable q physical (exec_answer store guard q);
    match physical with Ok (body, _) -> body | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (explicit, abbreviated) ->
      Alcotest.(check string) explicit (answer abbreviated) (answer explicit))
    [ ("//record/child::name", "//record/name");
      ("/child::data/child::record/child::*", "/data/record/*");
      ("//record/child::name/child::text()", "//record/name/text()");
      ("//record/attribute::id", "//record/@id");
      ("count(//record[child::sub])", "count(//record[sub])");
      ("//record/descendant::name", "//record//name") ];
  Alcotest.(check string) "descendant positions in document order"
    "<name>a2</name>\n"
    (answer "/data/descendant::name[3]");
  Alcotest.(check string) "a descendant position per context node"
    "<name>a</name>\n<name>b</name>\n<name>c2</name>\n"
    (answer "//record/descendant::name[1]")

let suite =
  [
    Alcotest.test_case "Figure-1 instances" `Quick test_figure_instances;
    Alcotest.test_case "XMark/DBLP/NASA x Fig. 15 + MUTATE" `Quick test_workloads;
    Alcotest.test_case "multi-root forest" `Quick test_multi_root_forest;
    Alcotest.test_case "empty forest" `Quick test_empty_forest;
    Alcotest.test_case "attribute-shaped children" `Quick test_attribute_children;
    Alcotest.test_case "text and element children" `Quick test_mixed_content;
    Alcotest.test_case "query bodies = run_on_store" `Quick test_queries;
    Alcotest.test_case "query failures" `Quick test_query_failures;
    Alcotest.test_case "explicit axes answer as abbreviated steps" `Quick
      test_explicit_axes;
  ]
