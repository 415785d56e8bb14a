(* Moderate-scale end-to-end invariants on the synthetic workloads: the
   full pipeline at a size where bookkeeping bugs (offsets, join runs,
   dedup) would surface. *)

let test_xmark_identity_preserves_everything () =
  let doc = Workloads.Xmark.to_doc ~factor:0.01 () in
  let store = Store.Shredded.shred doc in
  let tree, compiled = (
    let c = Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE site" in
    (Xmorph.Interp.render store c, c))
  in
  ignore compiled;
  Alcotest.(check int) "every vertex rendered"
    (Xml.Doc.node_count doc)
    (Xml.Tree.count_nodes tree);
  Alcotest.(check bool) "document equal up to sibling order" true
    (Xml.Tree.equal_unordered tree (Xml.Doc.to_tree doc))

let test_dblp_morph_counts () =
  let entries = 2_000 in
  let doc = Workloads.Dblp.to_doc ~entries () in
  let store = Store.Shredded.shred doc in
  let guide = Store.Shredded.guide store in
  (* Total authors across publication kinds. *)
  let author_count =
    List.fold_left
      (fun acc ty -> acc + Xml.Dataguide.instance_count guide ty)
      0
      (Xml.Dataguide.match_label guide "author")
  in
  let tree, _ = (
    let c = Xmorph.Interp.compile ~enforce:false guide "MORPH author" in
    (Xmorph.Interp.render store c, c))
  in
  let rendered = ref 0 in
  let rec count (t : Xml.Tree.t) =
    match t with
    | Xml.Tree.Element { name = "author"; children; _ } ->
        incr rendered;
        List.iter count children
    | Xml.Tree.Element { children; _ } -> List.iter count children
    | Xml.Tree.Text _ -> ()
  in
  count tree;
  Alcotest.(check int) "all authors rendered" author_count !rendered

let test_store_roundtrip_at_scale () =
  let doc = Workloads.Nasa.to_doc ~datasets:150 () in
  let store = Store.Shredded.shred doc in
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save store path;
  let store2 = Store.Shredded.load path in
  Sys.remove path;
  Alcotest.(check int) "nodes" (Store.Shredded.node_count store)
    (Store.Shredded.node_count store2);
  (* Same transformation result from both stores. *)
  let run st =
    let c =
      Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide st)
        "MORPH dataset [ title identifier ]"
    in
    Xml.Printer.to_string (Xmorph.Interp.render st c)
  in
  Alcotest.(check string) "same render" (run store) (run store2)

let test_quantify_scales () =
  (* The exact loss measurement stays consistent at scale. *)
  let doc = Workloads.Dblp.to_doc ~entries:500 () in
  let store = Store.Shredded.shred doc in
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store)
      "MORPH article [ title year ]"
  in
  let m = Xmorph.Quantify.measure store compiled.Xmorph.Interp.shape in
  Alcotest.(check bool) "reversible projection" true m.Xmorph.Quantify.reversible

(* Hostile shapes for the loss analysis: its identity-MUTATE report on each
   must equal the pair loop's. *)
let check_identity_report doc root =
  let guide = Xml.Dataguide.of_doc doc in
  let guard = "MUTATE " ^ root in
  let sem = Xmorph.Semantics.eval guide (Xmorph.Algebra.of_ast (Xmorph.Parse.guard guard)) in
  Test_loss.check_agrees guard guide sem;
  Xmorph.Loss.analyze guide sem.Xmorph.Semantics.shape

let leaf name = Xml.Tree.Element { name; attrs = []; children = [ Xml.Tree.Text "t" ] }

let test_loss_wide_siblings () =
  (* About 3000 sibling element types under one root; every third appears
     twice. *)
  let kids =
    List.concat
      (List.init 3000 (fun i ->
           let e = leaf (Printf.sprintf "e%d" i) in
           if i mod 3 = 0 then [ e; e ] else [ e ]))
  in
  let doc = Xml.Doc.of_tree (Xml.Tree.Element { name = "r"; attrs = []; children = kids }) in
  let r = check_identity_report doc "r" in
  Alcotest.(check int) "every type kept" 0 (List.length r.Xmorph.Report.omitted_types)

let test_loss_deep_chain () =
  (* A chain of about 200 levels beside a copy of its first 100, so the
     edge below level 101 is optional. *)
  let node name children = Xml.Tree.Element { name; attrs = []; children } in
  let rec chain n = if n = 0 then leaf "c" else node "c" [ chain (n - 1) ] in
  let doc = Xml.Doc.of_tree (node "r" [ chain 200; chain 100 ]) in
  ignore (check_identity_report doc "r")

(* A root with 3000 sibling element types of three instances each: the
   index and the shape equal the replaced indexer's, and indexing takes
   time linear in the nodes.  Its time is bounded as a ratio to a root of
   as many children of three types, timed in the same process (the best
   of five alternating runs each): 5 to 7 on a 2-vCPU Xeon container,
   where scanning every chain without the hash-table fallback read 66 to
   88. *)
let test_index_wide_types () =
  let names = Array.init 3000 (Printf.sprintf "e%d") in
  let root kid = Xml.Tree.Element { name = "r"; attrs = []; children = List.init 9000 kid } in
  let wide = root (fun i -> leaf names.(i mod 3000)) in
  let narrow = root (fun i -> leaf names.(i mod 3)) in
  Test_doc_oracle.agree [ wide ];
  let store = Store.Shredded.shred (Xml.Doc.of_tree wide) in
  let guide = Store.Shredded.guide store in
  List.iter
    (fun ty ->
      if not (Xmutil.Card.equal (Xml.Dataguide.card guide ty) (Xmutil.Card.v 3 3)) then
        Alcotest.failf "edge r -> %s shredded as %s, not 3..3"
          (Xml.Type_table.component (Xml.Dataguide.types guide) ty)
          (Xmutil.Card.to_string (Xml.Dataguide.card guide ty)))
    (Xml.Dataguide.children guide (Xml.Dataguide.root guide));
  let time tree =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (Xml.Doc.of_tree tree));
    Unix.gettimeofday () -. t0
  in
  let best_wide = ref infinity and best_narrow = ref infinity in
  for _ = 1 to 5 do
    best_wide := Float.min !best_wide (time wide);
    best_narrow := Float.min !best_narrow (time narrow)
  done;
  let ratio = !best_wide /. !best_narrow in
  Printf.printf "index: 3000 types x 3 %.2f ms, 3 types x 3000 %.2f ms, ratio %.1f\n"
    (!best_wide *. 1e3) (!best_narrow *. 1e3) ratio;
  if ratio > 30. then
    Alcotest.failf "indexing 3000 sibling types took %.1f times a narrow document (bound 30)"
      ratio

(* [Quantify.measure] of the identity over a root with [n] distinct
   one-node child types joins every pair of them once, so the work grows
   with the n^2 pairs: 16 times from 250 types to 1000.  Each join is
   keyed by its type pair in the render's edge table, and a key that
   hashes pairs into few buckets makes each lookup scan a bucket that
   grows with [n]: with [(pty lsl 32) lor cty] as the key, which
   [Hashtbl.hash] folds to [pty lxor cty], this test read a ratio of 104
   (0.12 s and 12.5 s) on a 2-vCPU Xeon container.  With a key that
   spreads it read 21 to 35 there, above the pair count because the
   tables of 500,000 joins outgrow the caches; the ratio is bounded at 50
   (the best of two runs each). *)
let test_quantify_wide_types () =
  let time n =
    let kids = List.init n (fun i -> leaf (Printf.sprintf "e%d" i)) in
    let store =
      Store.Shredded.shred
        (Xml.Doc.of_tree (Xml.Tree.Element { name = "r"; attrs = []; children = kids }))
    in
    let compiled =
      Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE r"
    in
    let once () =
      let t0 = Unix.gettimeofday () in
      let m = Xmorph.Quantify.measure store compiled.Xmorph.Interp.shape in
      let t = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "identity is reversible" true m.Xmorph.Quantify.reversible;
      t
    in
    Float.min (once ()) (once ())
  in
  let narrow = time 250 and wide = time 1000 in
  let ratio = wide /. narrow in
  Printf.printf "quantify: 250 types %.1f ms, 1000 types %.1f ms, ratio %.1f\n"
    (narrow *. 1e3) (wide *. 1e3) ratio;
  if ratio > 50. then
    Alcotest.failf "quantify over 1000 child types took %.1f times 250 (bound 50)" ratio

let suite =
  [
    Alcotest.test_case "xmark identity at scale" `Slow
      test_xmark_identity_preserves_everything;
    Alcotest.test_case "dblp morph counts at scale" `Slow test_dblp_morph_counts;
    Alcotest.test_case "store roundtrip at scale" `Slow test_store_roundtrip_at_scale;
    Alcotest.test_case "quantify at scale" `Slow test_quantify_scales;
    Alcotest.test_case "loss on 3000 sibling types" `Slow test_loss_wide_siblings;
    Alcotest.test_case "loss on a 200-level chain" `Slow test_loss_deep_chain;
    Alcotest.test_case "index on 3000 sibling types" `Slow test_index_wide_types;
    Alcotest.test_case "quantify on 1000 sibling types" `Slow test_quantify_wide_types;
  ]
