open Xmorph

let guards =
  [
    Workloads.Figures.example_guard;
    Workloads.Figures.widening_guard;
    "MUTATE data";
    "MUTATE (NEW scribe) [ author ]";
    "MORPH (RESTRICT name [ author ]) [ title ]";
    "MORPH book [**]";
    "TYPE-FILL MORPH author [ ghost ]";
  ]

let stream_of store compiled =
  let b = Buffer.create 256 in
  let stats = Render.stream store compiled.Interp.shape (Buffer.add_string b) in
  (Buffer.contents b, stats)

let buffer_of store compiled =
  let b = Buffer.create 256 in
  let stats = Render.to_buffer store compiled.Interp.shape b in
  (Buffer.contents b, stats)

let test_stream_equals_materialized () =
  List.iter
    (fun src ->
      let store = Store.Shredded.shred (Xml.Doc.of_string src) in
      List.iter
        (fun guard ->
          let compiled =
            Interp.compile ~enforce:false (Store.Shredded.guide store) guard
          in
          let s1, st1 = stream_of store compiled in
          let s2, st2 = buffer_of store compiled in
          Alcotest.(check string) (guard ^ " same bytes") s2 s1;
          Alcotest.(check int) (guard ^ " same element count")
            st2.Render.elements st1.Render.elements;
          Alcotest.(check int) (guard ^ " same byte count") st2.Render.bytes
            st1.Render.bytes)
        guards)
    [
      Workloads.Figures.instance_a; Workloads.Figures.instance_b;
      Workloads.Figures.instance_c;
    ]

let test_stream_attribute_shapes () =
  let src = {|<r><e year="1999"><v>one</v></e><e year="2000"><v>two</v></e></r>|} in
  let store = Store.Shredded.shred (Xml.Doc.of_string src) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store) "MORPH e [ @year v ]"
  in
  let s, _ = stream_of store compiled in
  let s2, _ = buffer_of store compiled in
  Alcotest.(check string) "attrs match" s2 s

let test_stream_charges_writes () =
  let store = Store.Shredded.shred (Xml.Doc.of_string Workloads.Figures.instance_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store)
      Workloads.Figures.example_guard
  in
  Store.Io_stats.reset (Store.Shredded.stats store);
  let _, stats = stream_of store compiled in
  let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  Alcotest.(check int) "write bytes charged" stats.Render.bytes
    io.Store.Io_stats.bytes_written

let test_stream_fragments_arrive_incrementally () =
  let store = Store.Shredded.shred (Xml.Doc.of_string Workloads.Figures.instance_a) in
  let compiled =
    Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE data"
  in
  let fragments = ref 0 in
  ignore (Render.stream store compiled.Interp.shape (fun _ -> incr fragments));
  Alcotest.(check bool) "many fragments, not one blob" true (!fragments > 10)

let prop_stream_equals_materialized_random =
  QCheck2.Test.make ~name:"stream = materialized on random docs" ~count:80
    Gen.gen_doc (fun doc ->
      let store = Store.Shredded.shred doc in
      let guide = Store.Shredded.guide store in
      let root_label =
        Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
      in
      let compiled = Interp.compile ~enforce:false guide ("MUTATE " ^ root_label) in
      let b1 = Buffer.create 128 and b2 = Buffer.create 128 in
      ignore (Render.stream store compiled.Interp.shape (Buffer.add_string b1));
      ignore (Render.to_buffer store compiled.Interp.shape b2);
      Buffer.contents b1 = Buffer.contents b2)

(* The three ways out of the renderer agree on any guard: [to_buffer], the
   trees of [to_trees] printed with [Xml.Printer], and the concatenated
   [stream] fragments give the same bytes, the same [Render.stats] and the
   same [Io_stats] charges, on fresh stores.  The tree path
   charges its printed bytes as one write, as [to_buffer] does.  Guards
   are drawn over the document's own labels and values, so ORDER-BY,
   value filters, RESTRICT, NEW nodes and attribute children take part;
   each guard is rendered again after a value-update batch, so patched
   values are read too.  On the same documents, [Shredded.join_level] is
   the maximal common Dewey prefix over every instance pair. *)
let io store = Store.Io_stats.snapshot (Store.Shredded.stats store)

let via_buffer store shape =
  let b = Buffer.create 256 in
  let st = Render.to_buffer store shape b in
  (Buffer.contents b, st, io store)

let via_trees store shape =
  let trees = Render.to_trees store shape in
  let b = Buffer.create 256 in
  List.iter (Xml.Printer.to_buffer b) trees;
  Store.Io_stats.charge_write (Store.Shredded.stats store) (Buffer.length b);
  let elements = List.fold_left (fun n t -> n + Xml.Tree.count_nodes t) 0 trees in
  (Buffer.contents b, { Render.elements; bytes = Buffer.length b }, io store)

let via_stream store shape =
  let b = Buffer.create 256 in
  let st = Render.stream store shape (Buffer.add_string b) in
  (Buffer.contents b, st, io store)

let brute_join_level store t u =
  let deweys ty =
    Array.map
      (fun id -> (Store.Shredded.node store id).Store.Shredded.dewey)
      (Store.Shredded.sequence store ty)
  in
  let best = ref 0 in
  Array.iter
    (fun x ->
      Array.iter (fun y -> best := max !best (Xmutil.Dewey.common_prefix_len x y)) (deweys u))
    (deweys t);
  !best

let gen_case =
  QCheck2.Gen.(
    let* tree = Gen.gen_tree in
    let doc = Xml.Doc.of_tree tree in
    let tt = Xml.Doc.types doc in
    let labels = ref [] in
    Xml.Type_table.iter tt (fun ty ->
        labels := Xml.Type_table.label tt ty :: Xml.Type_table.qname tt ty :: !labels);
    let literals =
      "A"
      :: List.filter_map
           (fun i ->
             let v = Xml.Doc.value doc i in
             if v = "" || String.contains v '"' then None else Some v)
           (List.init (Xml.Doc.node_count doc) Fun.id)
    in
    let vocab =
      { Test_guard_prop.label = oneofl !labels; literal = oneofl literals; order_by = true }
    in
    let* guard = Test_guard_prop.gen_guard_over vocab in
    let* batch =
      list_size (int_range 1 4)
        (pair (int_range 0 (Xml.Doc.node_count doc - 1)) (oneofl literals))
    in
    return (tree, Ast.to_string guard, batch))

let print_case (tree, guard, batch) =
  Printf.sprintf "%s\n%s\n[%s]" (Xml.Printer.to_string tree) guard
    (String.concat "; " (List.map (fun (i, v) -> Printf.sprintf "%d:%S" i v) batch))

let prop_three_paths_agree =
  QCheck2.Test.make ~name:"to_buffer = to_trees = stream, bytes, stats and I/O"
    ~count:300 ~print:print_case
    (* unshrunk: shrinking a document, a guard and a batch together runs
       for minutes, and the failing case prints small enough *)
    (QCheck2.Gen.no_shrink gen_case) (fun (tree, guard, batch) ->
      let doc = Xml.Doc.of_tree tree in
      let fresh batch =
        let store = Store.Shredded.shred doc in
        let store = if batch = [] then store else Store.Shredded.update_values store batch in
        Store.Io_stats.reset (Store.Shredded.stats store);
        store
      in
      let levels_ok =
        let store = fresh [] in
        let n = Xml.Type_table.count (Store.Shredded.types store) in
        List.for_all
          (fun t ->
            List.for_all
              (fun u -> Store.Shredded.join_level store t u = brute_join_level store t u)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      levels_ok
      &&
      match Interp.compile ~enforce:false (Store.Shredded.guide (fresh [])) guard with
      | exception _ -> true
      | compiled ->
          let shape = compiled.Interp.shape in
          List.for_all
            (fun batch ->
              let b = via_buffer (fresh batch) shape in
              b = via_trees (fresh batch) shape && b = via_stream (fresh batch) shape)
            [ []; batch ])

let suite =
  [
    Alcotest.test_case "stream = materialized (all constructs)" `Quick
      test_stream_equals_materialized;
    Alcotest.test_case "attribute rendering" `Quick test_stream_attribute_shapes;
    Alcotest.test_case "write charging" `Quick test_stream_charges_writes;
    Alcotest.test_case "incremental fragments" `Quick
      test_stream_fragments_arrive_incrementally;
    QCheck_alcotest.to_alcotest prop_stream_equals_materialized_random;
    QCheck_alcotest.to_alcotest prop_three_paths_agree;
  ]
