open Guarded

let equivalent ?(src = Workloads.Figures.instance_a) guard =
  let doc = Xml.Doc.of_string src in
  let via_view = View_gen.run_view doc guard in
  let via_render, _ = Xmorph.Interp.transform_doc ~enforce:false doc guard in
  Xml.Tree.equal_unordered via_view via_render

let check_equiv ?src guard =
  Alcotest.(check bool) (guard ^ " equivalent") true (equivalent ?src guard)

let test_equivalence_basic () =
  List.iter check_equiv
    [
      "MORPH author [ name book [ title ] ]";
      "MORPH book [ title publisher [ name ] ]";
      "MUTATE data";
      "MORPH publisher [ name ]";
      "MORPH title";
    ]

let test_equivalence_other_shapes () =
  check_equiv ~src:Workloads.Figures.instance_b "MORPH author [ name book [ title ] ]";
  check_equiv ~src:Workloads.Figures.instance_c "MORPH author [ name book [ title ] ]";
  check_equiv ~src:Workloads.Figures.instance_b "MUTATE data"

let test_equivalence_value_filter () =
  check_equiv {|MORPH author [ name = "A" ]|};
  check_equiv {|MORPH book [ title = "Y" ]|};
  (* A filtered child that is its parent's ancestor keeps it or not. *)
  check_equiv ~src:"<r><a>k<b>v</b></a><a>z<b>w</b></a></r>" {|MORPH b [ a = "k" ]|}

let test_equivalence_attributes () =
  let src = {|<r><e year="1999"><v>one</v></e><e year="2000"><v>two</v></e></r>|} in
  check_equiv ~src "MORPH e [ @year v ]"

let test_restrict_descendant () =
  (* RESTRICT on a descendant chain compiles to where exists(...). *)
  let src = {|<r><e><k/><v>yes</v></e><e><v>no</v></e></r>|} in
  check_equiv ~src "MORPH (RESTRICT e [ k ]) [ v ]"

let test_unsupported_forms () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
  let store = Store.Shredded.shred doc in
  let guide = Store.Shredded.guide store in
  List.iter
    (fun guard ->
      match View_gen.generate_guard guide guard with
      | exception View_gen.Unsupported _ -> ()
      | view -> Alcotest.failf "expected Unsupported for %s, got %s" guard view)
    [
      "MUTATE (NEW scribe) [ author ]";
      "TYPE-FILL MORPH author [ ghost ]";
      "MORPH author [ name ] book [ CLONE author.name ]";
      "MORPH (RESTRICT name [ author ]) [ title ]";
    ]

let test_view_reproduces_paper_quote () =
  (* "one variable for every type": MUTATE over the whole document binds a
     variable per source type. *)
  let doc = Workloads.Xmark.to_doc ~factor:0.002 () in
  let store = Store.Shredded.shred doc in
  let guide = Store.Shredded.guide store in
  let view = View_gen.generate_guard guide "MUTATE site" in
  let count_vars s =
    let n = ref 0 in
    String.iteri (fun i c -> if c = '$' && i > 0 && s.[i - 1] <> '"' then incr n) s;
    !n
  in
  let types = Xml.Type_table.count (Store.Shredded.types store) in
  Alcotest.(check bool)
    (Printf.sprintf "many bindings (%d types)" types)
    true
    (count_vars view > types)

let prop_view_equals_render_identity =
  QCheck2.Test.make ~name:"generated view = render (identity MUTATE)" ~count:60
    Gen.gen_doc (fun doc ->
      let guide = Xml.Dataguide.of_doc doc in
      let root_label =
        Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
      in
      let guard = "MUTATE " ^ root_label in
      match View_gen.run_view doc guard with
      | exception View_gen.Unsupported _ -> true
      | via_view ->
          let via_render, _ = Xmorph.Interp.transform_doc ~enforce:false doc guard in
          Xml.Tree.equal_unordered via_view via_render)

(* The render's bytes, as [xmorph run] prints them unindented. *)
let render_bytes store (compiled : Xmorph.Interp.t) =
  let b = Buffer.create 256 in
  ignore (Xmorph.Interp.render_to_buffer store compiled b);
  Buffer.contents b

(* The view's bytes for a compiled guard, or None when it is unsupported. *)
let view_bytes doc store (compiled : Xmorph.Interp.t) =
  match View_gen.generate (Store.Shredded.guide store) compiled.Xmorph.Interp.shape with
  | exception View_gen.Unsupported _ -> None
  | view -> Some (Xml.Printer.to_string (View_gen.eval (Xml.Doc.to_tree doc) view))

let check_refused ~src guard =
  let doc = Xml.Doc.of_string src in
  let store = Store.Shredded.shred doc in
  let compiled = Xmorph.Interp.compile (Store.Shredded.guide store) guard in
  Alcotest.(check (option string)) (guard ^ " refused") None (view_bytes doc store compiled)

let test_sorted_node () =
  (* The view once dropped ORDER-BY and listed X before Y. *)
  check_refused ~src:Workloads.Figures.instance_a "MORPH book [ title ] ORDER-BY title desc"

let test_attribute_of_an_ancestor () =
  (* year is book's attribute, not author's: the render writes it as an
     attribute of the one author under each book, the view once wrote an
     empty <year/>. *)
  check_refused ~src:{|<lib><book year="1999"><author>A</author></book></lib>|}
    "MORPH author [ @year ]";
  (* A mandatory attribute of the node's own type is written by both. *)
  check_equiv ~src:{|<lib><author year="1999">A</author><author year="2000">B</author></lib>|}
    "MORPH author [ @year ]"

(* Random documents (attributes, mixed content, colliding labels) x random
   guards, NEW-headed trees included, naming types by label, by dotted path
   and with or without "@": the view answers with the render's bytes or is
   refused. *)
let test_random_guards () =
  let equal = ref 0 and refused = ref 0 in
  let gen =
    QCheck2.Gen.(
      let* doc = Gen.gen_doc in
      let tt = Xml.Doc.types doc in
      let labels = ref [] in
      Xml.Type_table.iter tt (fun ty ->
          labels :=
            Xml.Type_table.component tt ty :: Xml.Type_table.label tt ty
            :: Xml.Type_table.qname tt ty :: !labels);
      let vocab =
        { Test_guard_prop.label = oneofl !labels; literal = oneofl [ "hello"; "1984" ];
          order_by = true }
      in
      let* guard = Test_guard_prop.gen_guard_over vocab in
      return (doc, Xmorph.Ast.to_string guard))
  in
  let prop (doc, guard) =
    let store = Store.Shredded.shred doc in
    match Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard with
    | exception (Xmorph.Interp.Error _ | Xmorph.Tshape.Error _) -> true
    | compiled -> (
        match view_bytes doc store compiled with
        | None ->
            incr refused;
            true
        | Some bytes ->
            let same = bytes = render_bytes store compiled in
            if same then incr equal;
            same)
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"view = render or Unsupported on random guards" ~count:500
       ~print:(fun (doc, g) -> Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g)
       (* unshrunk: shrinking a document and a guard together runs for
          minutes, and the failing pair prints small enough *)
       (QCheck2.Gen.no_shrink gen) prop);
  let counts = Printf.sprintf "%d compared equal, %d unsupported" !equal !refused in
  print_endline counts;
  Alcotest.(check bool) counts true (!equal > 0)

let suite =
  [
    Alcotest.test_case "view = render (basic guards)" `Quick test_equivalence_basic;
    Alcotest.test_case "view = render (other shapes)" `Quick test_equivalence_other_shapes;
    Alcotest.test_case "view = render (value filters)" `Quick test_equivalence_value_filter;
    Alcotest.test_case "view = render (attributes)" `Quick test_equivalence_attributes;
    Alcotest.test_case "RESTRICT via where exists" `Quick test_restrict_descendant;
    Alcotest.test_case "unsupported forms raise" `Quick test_unsupported_forms;
    Alcotest.test_case "one variable per type (paper quote)" `Quick
      test_view_reproduces_paper_quote;
    QCheck_alcotest.to_alcotest prop_view_equals_render_identity;
    Alcotest.test_case "sorted node refused" `Quick test_sorted_node;
    Alcotest.test_case "attribute of an ancestor refused" `Quick
      test_attribute_of_an_ancestor;
    Alcotest.test_case "view = render or Unsupported (random guards)" `Quick
      test_random_guards;
  ]
