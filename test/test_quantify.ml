open Xmorph

let measure src guard =
  let store = Store.Shredded.shred (Xml.Doc.of_string src) in
  let compiled = Interp.compile ~enforce:false (Store.Shredded.guide store) guard in
  Quantify.measure store compiled.Interp.shape

let fig_a = Workloads.Figures.instance_a
let fig_c = Workloads.Figures.instance_c

let test_strong_guard_reversible () =
  (* The Sec. I guard preserves all closest edges among kept types. *)
  let m = measure fig_a Workloads.Figures.example_guard in
  Alcotest.(check bool) "reversible" true m.Quantify.reversible;
  Alcotest.(check int) "nothing added" 0 m.Quantify.added;
  Alcotest.(check int) "nothing lost" 0 m.Quantify.lost;
  Alcotest.(check bool) "has edges" true (m.Quantify.source_edges > 0);
  Alcotest.(check int) "all preserved" m.Quantify.source_edges m.Quantify.preserved

let test_widening_guard_adds () =
  (* The Fig. 3 guard on instance (c): titles become closest to publishers
     they never shared a book with. *)
  let m = measure fig_c Workloads.Figures.widening_guard in
  Alcotest.(check bool) "edges added" true (m.Quantify.added > 0);
  Alcotest.(check int) "no edges lost" 0 m.Quantify.lost;
  Alcotest.(check bool) "not reversible" false m.Quantify.reversible;
  Alcotest.(check bool) "percentage positive" true (m.Quantify.added_pct > 0.0);
  (* The delta names the culprit pair. *)
  Alcotest.(check bool) "delta mentions title-publisher" true
    (List.exists
       (fun d ->
         (Tutil.contains d.Quantify.from_type "title"
         && Tutil.contains d.Quantify.to_type "publisher")
         || (Tutil.contains d.Quantify.from_type "publisher"
            && Tutil.contains d.Quantify.to_type "title"))
       m.Quantify.deltas)

let test_lossy_mutation_counts () =
  (* Swapping name above author when some authors lack a name discards the
     nameless author's edges. *)
  let src = {|<data><author><x>1</x></author><author><name>B</name><x>2</x></author></data>|} in
  let m = measure src "CAST (MUTATE name [ author ])" in
  Alcotest.(check bool) "edges lost" true (m.Quantify.lost > 0)

let test_identity_mutation_reversible () =
  let m = measure fig_a "MUTATE data" in
  Alcotest.(check bool) "identity reversible" true m.Quantify.reversible

let test_exact_counts_small () =
  (* MORPH author [ name ] on (a): 3 authors each closest to its own name:
     3 edges, all preserved. *)
  let m = measure fig_a "MORPH author [ name ]" in
  Alcotest.(check int) "three edges" 3 m.Quantify.source_edges;
  Alcotest.(check int) "preserved" 3 m.Quantify.preserved;
  Alcotest.(check bool) "reversible" true m.Quantify.reversible

let test_quantified_percentage () =
  (* On (c): source title-publisher edges: X-W, Y-V, X-W = {(tX1,W1),(tY,V),(tX2,W2)}
     per author... measured value must equal added/source ratio. *)
  let m = measure fig_c Workloads.Figures.widening_guard in
  Alcotest.(check (float 0.001)) "pct consistent"
    (100.0 *. float_of_int m.Quantify.added /. float_of_int m.Quantify.source_edges)
    m.Quantify.added_pct

let prop_identity_always_reversible =
  QCheck2.Test.make ~name:"identity MUTATE measures reversible" ~count:60
    Gen.gen_doc (fun doc ->
      let store = Store.Shredded.shred doc in
      let guide = Store.Shredded.guide store in
      let root_label =
        Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
      in
      let compiled =
        Interp.compile ~enforce:false guide ("MUTATE " ^ root_label)
      in
      (Quantify.measure store compiled.Interp.shape).Quantify.reversible)

let prop_direct_edges_clean =
  (* Render faithfulness: in a single-stage MORPH l1 [ l2 ], the direct
     parent/child pairing in the output is exactly the source closest
     relation — nothing added, nothing lost for that pair of types.
     (Edges *between* types separated into different output trees can be
     lost without the static theorems noticing — a measured blind spot of
     the cardinality conditions that Quantify exists to expose; that is
     covered by the alcotest cases above.) *)
  QCheck2.Test.make ~name:"direct MORPH edge measured clean" ~count:80
    QCheck2.Gen.(
      triple Gen.gen_doc
        (oneofl [ "a"; "b"; "c"; "item"; "name"; "title" ])
        (oneofl [ "a"; "b"; "c"; "item"; "name"; "title" ]))
    (fun (doc, l1, l2) ->
      if l1 = l2 then true
      else
        let store = Store.Shredded.shred doc in
        let guide = Store.Shredded.guide store in
        match
          Interp.compile ~enforce:false guide
            (Printf.sprintf "MORPH %s [ %s ]" l1 l2)
        with
        | exception Interp.Error _ -> true (* label absent / duplicate type *)
        | compiled ->
            let m = Quantify.measure store compiled.Interp.shape in
            let tt = Store.Shredded.types store in
            let pairs = ref [] in
            List.iter
              (fun (root : Tshape.node) ->
                match root.Tshape.source with
                | None -> ()
                | Some s1 ->
                    List.iter
                      (fun (c : Tshape.node) ->
                        match c.Tshape.source with
                        | Some s2 ->
                            pairs :=
                              (Xml.Type_table.qname tt s1, Xml.Type_table.qname tt s2)
                              :: !pairs
                        | None -> ())
                      root.Tshape.children)
              compiled.Interp.shape.Tshape.roots;
            List.for_all
              (fun (q1, q2) ->
                not
                  (List.exists
                     (fun d ->
                       (d.Quantify.from_type = q1 && d.Quantify.to_type = q2)
                       || (d.Quantify.from_type = q2 && d.Quantify.to_type = q1))
                     m.Quantify.deltas))
              !pairs)

(* The output closest relation as [Quantify] computed it before it went
   through [Xmutil.Dewey]'s kernel: its own merge pass for the level, and
   its own two-pointer grouping by prefix.  Kept as the oracle of
   [Quantify.measure]. *)
module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let oracle_output_closest (a : Render.instance array) (b : Render.instance array) =
  if Array.length a = 0 || Array.length b = 0 then Pair_set.empty
  else begin
    let a = Array.copy a and b = Array.copy b in
    Array.sort (fun (x : Render.instance) y -> Xmutil.Dewey.compare x.dewey y.dewey) a;
    Array.sort (fun (x : Render.instance) y -> Xmutil.Dewey.compare x.dewey y.dewey) b;
    let best = ref 0 in
    let consider (x : Render.instance) (y : Render.instance) =
      let cp = Xmutil.Dewey.common_prefix_len x.dewey y.dewey in
      if cp > !best then best := cp
    in
    let i = ref 0 and j = ref 0 in
    while !i < Array.length a && !j < Array.length b do
      consider a.(!i) b.(!j);
      if Xmutil.Dewey.compare a.(!i).dewey b.(!j).dewey <= 0 then incr i else incr j
    done;
    if !i < Array.length a && !j > 0 then consider a.(!i) b.(!j - 1);
    if !j < Array.length b && !i > 0 then consider a.(!i - 1) b.(!j);
    let l = !best in
    if l = 0 then Pair_set.empty
    else begin
      let edges = ref Pair_set.empty in
      let prefix (x : Render.instance) = Array.sub x.dewey 0 l in
      let j = ref 0 in
      Array.iter
        (fun (x : Render.instance) ->
          if Array.length x.dewey >= l then begin
            let px = prefix x in
            while
              !j < Array.length b
              && Array.length b.(!j).dewey >= l
              && compare (prefix b.(!j)) px < 0
            do
              incr j
            done;
            let k = ref !j in
            while
              !k < Array.length b && Array.length b.(!k).dewey >= l && prefix b.(!k) = px
            do
              if x.source >= 0 && b.(!k).source >= 0 then
                edges := Pair_set.add (x.source, b.(!k).source) !edges;
              incr k
            done
          end)
        a;
      !edges
    end
  end

(* [Quantify.measure]'s totals, with the oracle's output relation:
   (source edges, preserved, added, lost) over every pair of kept source
   types. *)
let oracle_totals store shape =
  let by_source = Hashtbl.create 16 in
  List.iter
    (fun ((tn : Tshape.node), arr) ->
      Option.iter (fun s -> Hashtbl.add by_source s arr) tn.Tshape.source)
    (Render.instances store shape);
  let kept = List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys by_source)) in
  List.fold_left
    (fun totals s1 ->
      List.fold_left
        (fun (se, pr, ad, lo) s2 ->
          if s1 >= s2 then (se, pr, ad, lo)
          else
            let src = Pair_set.of_list (Render.closest_pairs store s1 s2) in
            let out =
              List.fold_left
                (fun out a1 ->
                  List.fold_left
                    (fun out a2 -> Pair_set.union out (oracle_output_closest a1 a2))
                    out (Hashtbl.find_all by_source s2))
                Pair_set.empty (Hashtbl.find_all by_source s1)
            in
            let card x = Pair_set.cardinal x in
            ( se + card src,
              pr + card (Pair_set.inter src out),
              ad + card (Pair_set.diff out src),
              lo + card (Pair_set.diff src out) ))
        totals kept)
    (0, 0, 0, 0) kept

(* Random guards over the labels of random documents, shallow ones and
   [Test_loss]'s deeper ones: [measure] agrees with the oracle on every
   case that compiles.  The counts of additive and of non-inclusive cases
   are printed, and neither may be 0, so both sides of Def. 5 are
   exercised (seed 28: 467 measured, 9 adding and 131 losing edges). *)
let test_measure_matches_oracle () =
  let gen =
    QCheck2.Gen.(
      let* doc = oneof [ Gen.gen_doc; Test_loss.gen_shaped_doc ] in
      let tt = Xml.Doc.types doc in
      let labels = ref [] in
      Xml.Type_table.iter tt (fun ty ->
          labels := Xml.Type_table.label tt ty :: Xml.Type_table.qname tt ty :: !labels);
      let vocab =
        { Test_guard_prop.label = oneofl !labels; literal = oneofl [ "hello"; "1984" ];
          order_by = true }
      in
      let* guard = Test_guard_prop.gen_guard_over vocab in
      return (doc, Ast.to_string guard))
  in
  let cases = QCheck2.Gen.generate ~n:1000 ~rand:(Random.State.make [| 28 |]) gen in
  let measured = ref 0 and added = ref 0 and lost = ref 0 in
  List.iter
    (fun (doc, guard) ->
      let store = Store.Shredded.shred doc in
      match Interp.compile ~enforce:false (Store.Shredded.guide store) guard with
      | exception _ -> ()
      | compiled ->
          let shape = compiled.Interp.shape in
          let m = Quantify.measure store shape in
          let got = (m.Quantify.source_edges, m.preserved, m.added, m.lost) in
          if got <> oracle_totals store shape then
            Alcotest.failf "measure differs from the oracle on %s over %s" guard
              (Xml.Printer.to_string (Xml.Doc.to_tree doc));
          incr measured;
          if m.added > 0 then incr added;
          if m.lost > 0 then incr lost)
    cases;
  Printf.printf "%d guards measured: %d with added > 0, %d with lost > 0\n" !measured
    !added !lost;
  Alcotest.(check bool) "some case adds edges" true (!added > 0);
  Alcotest.(check bool) "some case loses edges" true (!lost > 0)

let suite =
  [
    Alcotest.test_case "strong guard reversible" `Quick test_strong_guard_reversible;
    Alcotest.test_case "widening guard adds edges" `Quick test_widening_guard_adds;
    Alcotest.test_case "lossy mutation loses edges" `Quick test_lossy_mutation_counts;
    Alcotest.test_case "identity reversible" `Quick test_identity_mutation_reversible;
    Alcotest.test_case "exact small counts" `Quick test_exact_counts_small;
    Alcotest.test_case "percentage consistent" `Quick test_quantified_percentage;
    QCheck_alcotest.to_alcotest prop_identity_always_reversible;
    QCheck_alcotest.to_alcotest prop_direct_edges_clean;
    Alcotest.test_case "measure = oracle on random guards" `Quick test_measure_matches_oracle;
  ]
