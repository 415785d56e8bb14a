open Xmorph

let fig_a = Workloads.Figures.instance_a
let fig_b = Workloads.Figures.instance_b
let fig_c = Workloads.Figures.instance_c

let transform ?(enforce = false) src guard =
  let doc = Xml.Doc.of_string src in
  let tree, _ = Interp.transform_doc ~enforce doc guard in
  tree

let test_figure2_a () =
  (* Fig. 2: the example guard on instance (a). *)
  Tutil.check_xml "fig 2 from (a)"
    {|<result>
       <author><name>A</name><book><title>X</title></book></author>
       <author><name>B</name><book><title>X</title></book></author>
       <author><name>A</name><book><title>Y</title></book></author>
     </result>|}
    (transform fig_a Workloads.Figures.example_guard)

let test_figure2_b_same_as_a () =
  (* Instances (a) and (b) are "(logically) transformed to the same
     instance" (Sec. I). *)
  let ta = transform fig_a Workloads.Figures.example_guard in
  let tb = transform fig_b Workloads.Figures.example_guard in
  Alcotest.(check bool) "same result" true (Xml.Tree.equal ta tb)

let test_figure2_c_grouped () =
  (* Instance (c) differs only in grouping authors by name. *)
  Tutil.check_xml "fig 2 from (c)"
    {|<result>
       <author><name>A</name><book><title>X</title></book><book><title>Y</title></book></author>
       <author><name>B</name><book><title>X</title></book></author>
     </result>|}
    (transform fig_c Workloads.Figures.example_guard)

let test_figure3 () =
  (* The widening guard on (a): titles pulled next to author and publisher. *)
  Tutil.check_xml "fig 3 from (a)"
    {|<result>
       <author><title>X</title><name>A</name><publisher><name>W</name></publisher></author>
       <author><title>X</title><name>B</name><publisher><name>W</name></publisher></author>
       <author><title>Y</title><name>A</name><publisher><name>V</name></publisher></author>
     </result>|}
    (transform fig_a Workloads.Figures.widening_guard)

let test_figure3_widening_duplicates () =
  (* On (c) every title joins every publisher (all equally close): the
     manufactured closeness the paper warns about becomes visible as
     duplication. *)
  let t = transform fig_c Workloads.Figures.widening_guard in
  let count_sub name tree =
    let rec go acc (t : Xml.Tree.t) =
      match t with
      | Xml.Tree.Element { name = n; children; _ } ->
          List.fold_left go (if n = name then acc + 1 else acc) children
      | _ -> acc
    in
    go 0 tree
  in
  (* Author A's two publishers plus author B's one: the titles of each
     author now sit next to every one of its publishers. *)
  Alcotest.(check int) "publisher count" 3 (count_sub "publisher" t)

let test_mutate_b_to_a () =
  (* MUTATE book [ publisher [ name ] ] rearranges (b) into (a). *)
  Tutil.check_xml "b -> a" fig_a (transform fig_b "MUTATE book [ publisher [ name ] ]")

let test_mutate_site_identity () =
  (* The Fig. 10 transformation: MUTATE <root> is the identity. *)
  Tutil.check_xml "identity" fig_a (transform fig_a "MUTATE data")

let test_values_preserved () =
  let t = transform fig_a "MORPH author [ name ]" in
  Alcotest.(check bool) "text values present" true
    (Tutil.contains (Xml.Printer.to_string t) "<name>A</name>")

let test_attributes_rendered () =
  let src = {|<r><e year="1999"><v>one</v></e><e year="2000"><v>two</v></e></r>|} in
  let t = transform src "MORPH e [ @year v ]" in
  Alcotest.(check bool) "attribute restored" true
    (Tutil.contains (Xml.Printer.to_string t) {|year="1999"|})

let test_attribute_promoted_to_element () =
  (* An attribute used as an inner node of the target shape renders as an
     element. *)
  let src = {|<r><e year="1999"><v>one</v></e></r>|} in
  let t = transform src "MORPH year [ v ]" in
  Alcotest.(check bool) "element form" true
    (Tutil.contains (Xml.Printer.to_string t) "<year>1999<v>one</v></year>")

let test_new_wrapper () =
  let t = transform fig_a "MUTATE (NEW scribe) [ author ]" in
  let s = Xml.Printer.to_string t in
  Alcotest.(check bool) "scribe wraps author" true
    (Tutil.contains s "<scribe><author>");
  (* One scribe per author: 3 authors. *)
  let count = ref 0 in
  let rec go (t : Xml.Tree.t) =
    match t with
    | Xml.Tree.Element { name; children; _ } ->
        if name = "scribe" then incr count;
        List.iter go children
    | _ -> ()
  in
  go t;
  Alcotest.(check int) "scribe count" 3 !count

let test_restrict_filters () =
  (* Only names that have a closest author survive. *)
  let t = transform fig_a "MORPH (RESTRICT name [ author ])" in
  let s = Xml.Printer.to_string t in
  Alcotest.(check bool) "author names kept" true (Tutil.contains s "<name>A");
  Alcotest.(check bool) "publisher names dropped" false (Tutil.contains s "<name>W")

let test_translate_rendering () =
  let t = transform fig_a "MORPH author [ name ] | TRANSLATE author -> writer" in
  Alcotest.(check bool) "renamed" true
    (Tutil.contains (Xml.Printer.to_string t) "<writer>")

let test_type_fill_renders_empty () =
  let t = transform fig_a "TYPE-FILL MORPH author [ ghost ]" in
  let s = Xml.Printer.to_string t in
  Alcotest.(check bool) "authors present" true (Tutil.contains s "<author>");
  Alcotest.(check bool) "ghost wrapper present" true (Tutil.contains s "<ghost/>")

let test_join_level () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let guide = Store.Shredded.guide store in
  let find l =
    match Xml.Dataguide.match_label guide l with
    | [ t ] -> t
    | _ -> Alcotest.failf "ambiguous %s" l
  in
  (* Sec. VII: publisher and title join beneath book (level 2). *)
  Alcotest.(check int) "publisher-title join level" 2
    (Store.Shredded.join_level store (find "publisher") (find "title"));
  Alcotest.(check int) "author-name join level" 3
    (Store.Shredded.join_level store (find "author") (find "author.name"))

let test_closest_pairs_paper_example () =
  (* Sec. VII: 1.1.3 (publisher) is closest to 1.1.1 (title X) but not to
     1.2.1 (title Y). *)
  let doc = Xml.Doc.of_string fig_a in
  let store = Store.Shredded.shred doc in
  let guide = Store.Shredded.guide store in
  let find l = List.hd (Xml.Dataguide.match_label guide l) in
  let pairs = Render.closest_pairs store (find "publisher") (find "title") in
  let dewey i = Xmutil.Dewey.to_string (Xml.Doc.node doc i).Xml.Doc.dewey in
  let rendered = List.map (fun (p, c) -> (dewey p, dewey c)) pairs in
  Alcotest.(check (list (pair string string)))
    "closest publisher-title pairs"
    [ ("1.1.4", "1.1.1"); ("1.2.3", "1.2.1") ]
    rendered

(* Brute-force closest relation as a qcheck oracle (Def. 2). *)
let brute_closest doc t u =
  let pairs =
    List.concat_map
      (fun v -> List.map (fun w -> (v, w)) (Array.to_list (Xml.Doc.nodes_of_type doc u)))
      (Array.to_list (Xml.Doc.nodes_of_type doc t))
  in
  let dist (v, w) = Xml.Doc.distance doc v w in
  let td = List.fold_left (fun m p -> min m (dist p)) max_int pairs in
  List.sort compare (List.filter (fun p -> dist p = td) pairs)

let prop_closest_join_matches_bruteforce =
  QCheck2.Test.make ~name:"closest join = brute force (Def. 2)" ~count:150
    Gen.gen_doc (fun doc ->
      let store = Store.Shredded.shred doc in
      let guide = Store.Shredded.guide store in
      let types = Xml.Dataguide.all_types guide in
      List.for_all
        (fun t ->
          List.for_all
            (fun u ->
              let got = List.sort compare (Render.closest_pairs store t u) in
              got = brute_closest doc t u)
            types)
        types)

let prop_identity_mutate_roundtrips =
  QCheck2.Test.make ~name:"MUTATE root renders the source document" ~count:100
    Gen.gen_doc (fun doc ->
      let guide = Xml.Dataguide.of_doc doc in
      let root_label =
        Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
      in
      let tree, _ =
        Interp.transform_doc ~enforce:false doc ("MUTATE " ^ root_label)
      in
      (* Shapes are unordered (Sec. III): the renderer groups siblings by
         type, so compare up to sibling order. *)
      Xml.Tree.equal_unordered tree (Xml.Doc.to_tree doc))

let test_to_buffer_stats () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      Workloads.Figures.example_guard
  in
  let buf = Buffer.create 256 in
  let stats = Interp.render_to_buffer store compiled buf in
  Alcotest.(check bool) "bytes counted" true
    (stats.Render.bytes = Buffer.length buf);
  Alcotest.(check bool) "elements counted" true (stats.Render.elements > 0);
  let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  Alcotest.(check bool) "write charged" true
    (io.Store.Io_stats.bytes_written >= stats.Render.bytes);
  Alcotest.(check bool) "reads charged" true (io.Store.Io_stats.bytes_read > 0)

let suite =
  [
    Alcotest.test_case "Figure 2 from (a)" `Quick test_figure2_a;
    Alcotest.test_case "(a) and (b) give the same result" `Quick test_figure2_b_same_as_a;
    Alcotest.test_case "Figure 2 from (c): grouped" `Quick test_figure2_c_grouped;
    Alcotest.test_case "Figure 3 rendering" `Quick test_figure3;
    Alcotest.test_case "widening manufactures pairs on (c)" `Quick
      test_figure3_widening_duplicates;
    Alcotest.test_case "MUTATE renders (b) as (a)" `Quick test_mutate_b_to_a;
    Alcotest.test_case "identity MUTATE" `Quick test_mutate_site_identity;
    Alcotest.test_case "values preserved" `Quick test_values_preserved;
    Alcotest.test_case "attributes rendered" `Quick test_attributes_rendered;
    Alcotest.test_case "attribute promoted to element" `Quick
      test_attribute_promoted_to_element;
    Alcotest.test_case "NEW wraps per instance" `Quick test_new_wrapper;
    Alcotest.test_case "RESTRICT filters instances" `Quick test_restrict_filters;
    Alcotest.test_case "TRANSLATE renders new names" `Quick test_translate_rendering;
    Alcotest.test_case "TYPE-FILL renders empty elements" `Quick
      test_type_fill_renders_empty;
    Alcotest.test_case "join levels (Sec. VII)" `Quick test_join_level;
    Alcotest.test_case "closest pairs (paper example)" `Quick
      test_closest_pairs_paper_example;
    QCheck_alcotest.to_alcotest prop_closest_join_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_identity_mutate_roundtrips;
    Alcotest.test_case "to_buffer stats and IO charges" `Quick test_to_buffer_stats;
  ]

let test_explain () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      Workloads.Figures.example_guard
  in
  let entries = Render.explain store compiled.Interp.shape in
  Alcotest.(check int) "three edges" 3 (List.length entries);
  let name_edge =
    List.find (fun e -> Tutil.contains e.Render.child "name") entries
  in
  Alcotest.(check int) "author-name distance" 1 name_edge.Render.type_distance;
  Alcotest.(check int) "3 pairs" 3 name_edge.Render.pairs;
  Alcotest.(check int) "no orphans" 0 name_edge.Render.orphans;
  (* every author has exactly one name in fig_a, so the dataguide-derived
     prediction pins the pair count and the q-error is exactly 1 *)
  Alcotest.(check bool) "prediction contains actual" true
    (Xmutil.Card.contains name_edge.Render.predicted name_edge.Render.pairs);
  Alcotest.(check (float 1e-9)) "q-error 1.0" 1.0
    (Xmutil.Card.qerror name_edge.Render.predicted name_edge.Render.pairs);
  (* A guard that strands children reports orphans. *)
  let src = {|<r><g><p/><c>1</c></g><g><c>2</c></g></r>|} in
  let store2 = Store.Shredded.shred (Xml.Doc.of_string src) in
  let c2 =
    Interp.compile ~enforce:false (Store.Shredded.guide store2) "MORPH p [ c ]"
  in
  let e2 = List.hd (Render.explain store2 c2.Interp.shape) in
  Alcotest.(check int) "orphaned c" 1 e2.Render.orphans

let suite = suite @ [ Alcotest.test_case "explain (join diagnostics)" `Quick test_explain ]

(* A node that keeps no instance joins nothing below it: the render of a
   root whose value filter matches nothing reads what the bare filter
   reads, however many edges hang below it. *)
let test_empty_node_joins_nothing () =
  let doc = Workloads.Dblp.to_doc ~seed:5 ~entries:300 () in
  let bytes_read guard =
    let store = Store.Shredded.shred doc in
    let compiled = Interp.compile ~enforce:false (Store.Shredded.guide store) guard in
    let buf = Buffer.create 64 in
    ignore (Interp.render_to_buffer store compiled buf);
    (Store.Io_stats.snapshot (Store.Shredded.stats store)).Store.Io_stats.bytes_read
  in
  let bare = bytes_read {|MORPH author = "nobody"|} in
  Alcotest.(check bool) "the filter reads its type" true (bare > 0);
  Alcotest.(check int) "edges below an empty root read nothing" bare
    (bytes_read {|MORPH author = "nobody" [ title [ year ] ]|})

let suite =
  suite
  @ [ Alcotest.test_case "a node keeping no instance joins nothing" `Quick
        test_empty_node_joins_nothing ]

(* The plan's edge cases.  A fresh store per render, so that every read
   of the render is charged to it. *)
let render_and_frames doc guard =
  let store = Store.Shredded.shred doc in
  let shape = (Interp.compile ~enforce:false (Store.Shredded.guide store) guard).Interp.shape in
  let buf = Buffer.create 256 in
  let st, frames = Xmobs.Ctx.profiled (fun () -> Render.to_buffer store shape buf) in
  let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  let rec closest (f : Xmobs.Frames.frame) =
    (if String.starts_with ~prefix:"closest(" f.name then
       [ Printf.sprintf "%s in=%d out=%d" f.name f.in_count f.out_count ]
     else [])
    @ List.concat_map closest (Xmobs.Frames.ordered_children f)
  in
  ( Printf.sprintf "%s elems=%d read=%d/%d" (Buffer.contents buf) st.Render.elements
      io.Store.Io_stats.bytes_read io.Store.Io_stats.read_ops,
    List.concat_map closest frames )

(* An edge with no runs — the child type lies in the other tree of a
   two-tree forest, so no pair of instances is closest — gives its
   parents no children, and the edge below it no parents to join. *)
let test_edge_without_runs () =
  let doc =
    Xml.Doc.of_forest
      [ Xml.Parser.parse "<a><x>1</x></a>";
        Xml.Parser.parse "<b><y><z>2</z><z>3</z></y></b>" ]
  in
  let out, frames = render_and_frames doc "MORPH a [ y [ z ] ]" in
  Alcotest.(check string) "render" "<a/> elems=1 read=19/5" out;
  Alcotest.(check (list string)) "closest frames"
    [ "closest(a->b.y) in=1 out=0"; "closest(b.y->b.y.z) in=0 out=0" ]
    frames

(* Edges whose parents use some of the child's runs and not others: a
   RESTRICTed parent and a value-filtered one.  Their bytes and read
   charges were recorded from the plan that copied every edge's runs. *)
let test_edge_with_unused_runs () =
  List.iter
    (fun (guard, want) ->
      let out, _ = render_and_frames (Xml.Doc.of_string fig_a) guard in
      Alcotest.(check string) guard want out)
    [ ({|MORPH (RESTRICT book [ title = "X" ]) [ author [ name ] ]|},
       "<book><author><name>A</name></author><author><name>B</name></author></book> \
        elems=5 read=199/18");
      ({|MORPH title = "Y" [ author [ name ] ]|},
       "<title>Y<author><name>A</name></author></title> elems=3 read=153/13") ]

let suite =
  suite
  @ [ Alcotest.test_case "an edge without runs plans no children" `Quick
        test_edge_without_runs;
      Alcotest.test_case "an edge with unused runs renders as before" `Quick
        test_edge_with_unused_runs ]
