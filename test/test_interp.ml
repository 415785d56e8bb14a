(* The public interpreter API surface: compile/render/transform variants,
   enforcement switches, error rendering, and algebra annotations. *)

open Xmorph

let fig_a = Workloads.Figures.instance_a

let guide_a () = Xml.Dataguide.of_doc (Xml.Doc.of_string fig_a)

let test_compile_fields () =
  let c = Interp.compile ~enforce:false (guide_a ()) Workloads.Figures.example_guard in
  Alcotest.(check string) "source kept" Workloads.Figures.example_guard c.Interp.source;
  Alcotest.(check bool) "labels populated" true (c.Interp.labels <> []);
  Alcotest.(check bool) "shape has a root" true (c.Interp.shape.Tshape.roots <> [])

let test_compile_annotates_algebra () =
  let c = Interp.compile ~enforce:false (guide_a ()) "MORPH author [ name ]" in
  (* Type analysis fills [inferred] on the Type_sel leaves. *)
  let found = ref false in
  let rec walk (a : Algebra.t) =
    (match a.Algebra.desc with
    | Algebra.Type_sel { label = "author"; _ } ->
        if a.Algebra.inferred <> [] then found := true
    | _ -> ());
    match a.Algebra.desc with
    | Algebra.Morph xs | Algebra.Mutate xs -> List.iter walk xs
    | Algebra.Closest (p, items) -> walk p; List.iter walk items
    | Algebra.Compose (x, y) -> walk x; walk y
    | Algebra.Cast (_, x) | Algebra.Type_fill x | Algebra.Children_of x
    | Algebra.Descendants_of x | Algebra.Drop x | Algebra.Clone x
    | Algebra.Restrict x | Algebra.Value_eq (x, _) | Algebra.Order_by (x, _, _) ->
        walk x
    | Algebra.Translate _ | Algebra.Type_sel _ | Algebra.New_label _
    | Algebra.Star_children | Algebra.Star_descendants ->
        ()
  in
  walk c.Interp.algebra;
  Alcotest.(check bool) "author annotated" true !found

let test_enforce_default_on () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_c in
  match Interp.transform_doc doc Workloads.Figures.widening_guard with
  | exception Loss.Rejected _ -> ()
  | _ -> Alcotest.fail "default enforcement should reject"

let test_error_messages_readable () =
  let guide = guide_a () in
  (match Interp.compile ~enforce:false guide "MORPH" with
  | exception Interp.Error m ->
      Alcotest.(check bool) "syntax error carries caret" true (Tutil.contains m "^")
  | _ -> Alcotest.fail "expected error");
  match Interp.compile ~enforce:false guide "MORPH nothing_here" with
  | exception Interp.Error m ->
      Alcotest.(check bool) "semantic error names the label" true
        (Tutil.contains m "nothing_here")
  | _ -> Alcotest.fail "expected error"

let test_transform_on_store_equals_doc () =
  let doc = Xml.Doc.of_string fig_a in
  let via_doc, _ = Interp.transform_doc ~enforce:false doc Workloads.Figures.example_guard in
  let store = Store.Shredded.shred doc in
  let via_store, _ = Interp.transform ~enforce:false store Workloads.Figures.example_guard in
  Alcotest.(check bool) "same result" true (Xml.Tree.equal via_doc via_store)

let test_render_reuses_compilation () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let c = Interp.compile ~enforce:false (Store.Shredded.guide store) "MORPH title" in
  let t1 = Interp.render store c and t2 = Interp.render store c in
  Alcotest.(check bool) "idempotent" true (Xml.Tree.equal t1 t2)

let test_compile_needs_only_shape () =
  (* The data-free phase: compiling against a loaded store's guide without
     touching node records. *)
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  Store.Io_stats.reset (Store.Shredded.stats store);
  let _ = Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE data" in
  let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  Alcotest.(check int) "no node reads during compile" 0 io.Store.Io_stats.read_ops

let suite =
  [
    Alcotest.test_case "compile populates fields" `Quick test_compile_fields;
    Alcotest.test_case "algebra annotated by analysis" `Quick test_compile_annotates_algebra;
    Alcotest.test_case "enforcement on by default" `Quick test_enforce_default_on;
    Alcotest.test_case "readable errors" `Quick test_error_messages_readable;
    Alcotest.test_case "store path = doc path" `Quick test_transform_on_store_equals_doc;
    Alcotest.test_case "render idempotent" `Quick test_render_reuses_compilation;
    Alcotest.test_case "compile is data-free" `Quick test_compile_needs_only_shape;
  ]
