open Guarded

let fig_a = Workloads.Figures.instance_a

let view () =
  Materialized.create ~enforce:false
    (Xml.Doc.of_string fig_a)
    ~guard:Workloads.Figures.example_guard

let test_create_materializes () =
  let v = view () in
  Alcotest.(check bool) "output rendered" true
    (Tutil.contains (Xml.Printer.to_string (Materialized.output v)) "<author>");
  Alcotest.(check int) "no refreshes yet" 0 (Materialized.full_refreshes v)

let test_query_view () =
  let v = view () in
  Alcotest.(check string) "count authors" "3"
    (Xquery.Value.to_string (Materialized.query v "count(//author)"))

let test_value_update_fast_path () =
  let v = view () in
  let v =
    Materialized.apply v
      (Materialized.Replace_value { select = "/data/book[2]/title"; value = "Z" })
  in
  (* The view reflects the new value... *)
  Alcotest.(check bool) "output has Z" true
    (Tutil.contains (Xml.Printer.to_string (Materialized.output v)) "<title>Z</title>");
  Alcotest.(check bool) "old value gone" false
    (Tutil.contains (Xml.Printer.to_string (Materialized.output v)) "<title>Y</title>");
  (* ...and the source too... *)
  Alcotest.(check bool) "source updated" true
    (Tutil.contains (Xml.Printer.to_string (Materialized.source v)) "<title>Z</title>");
  (* ...without a full refresh. *)
  Alcotest.(check int) "fast path" 0 (Materialized.full_refreshes v)

let test_value_update_multi_select () =
  let v = view () in
  let v =
    Materialized.apply v
      (Materialized.Replace_value { select = "/data/book/title"; value = "SAME" })
  in
  let s = Xml.Printer.to_string (Materialized.output v) in
  Alcotest.(check bool) "both titles replaced" true (Tutil.contains s "SAME");
  Alcotest.(check bool) "no X left" false (Tutil.contains s ">X<")

let test_insert_refreshes () =
  let v = view () in
  let v =
    Materialized.apply v
      (Materialized.Insert_child
         { select = "/data/book[1]";
           child = Xml.Tree.element "author" [ Xml.Tree.element "name" [ Xml.Tree.text "C" ] ] })
  in
  Alcotest.(check int) "full refresh" 1 (Materialized.full_refreshes v);
  Alcotest.(check string) "new author visible in view" "4"
    (Xquery.Value.to_string (Materialized.query v "count(//author)"))

let test_delete_refreshes () =
  let v = view () in
  let v = Materialized.apply v (Materialized.Delete { select = "/data/book[2]" }) in
  Alcotest.(check int) "full refresh" 1 (Materialized.full_refreshes v);
  Alcotest.(check string) "one book's authors left" "2"
    (Xquery.Value.to_string (Materialized.query v "count(//author)"))

let test_rename_refreshes () =
  (* Renaming survives when the guard's labels still match the new shape. *)
  let v =
    Materialized.create ~enforce:false (Xml.Doc.of_string fig_a)
      ~guard:"MORPH book [*]"
  in
  let v =
    Materialized.apply v
      (Materialized.Rename { select = "/data/book/title"; name = "headline" })
  in
  Alcotest.(check int) "refreshed" 1 (Materialized.full_refreshes v);
  Alcotest.(check string) "headlines in view" "2"
    (Xquery.Value.to_string (Materialized.query v "count(//headline)"))

let test_rename_breaks_guard_loudly () =
  (* When the rename removes a type the guard depends on, the refresh fails
     with a type mismatch — the guard protecting the query, not a silent
     empty result. *)
  let v =
    Materialized.create ~enforce:false (Xml.Doc.of_string fig_a)
      ~guard:"MORPH book [ title ]"
  in
  match
    Materialized.apply v
      (Materialized.Rename { select = "/data/book/title"; name = "headline" })
  with
  | exception Xmorph.Interp.Error msg ->
      Alcotest.(check bool) "type mismatch reported" true
        (Tutil.contains msg "type mismatch")
  | _ -> Alcotest.fail "expected the guard to reject the new shape"

let test_rename_to_attribute_name () =
  match
    Materialized.apply (view ())
      (Materialized.Rename { select = "/data/book/title"; name = "@title" })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_bad_select () =
  let v = view () in
  (match Materialized.apply v (Materialized.Delete { select = "/data/ghost" }) with
  | exception Materialized.Bad_select _ -> ()
  | _ -> Alcotest.fail "expected Bad_select");
  (match Materialized.apply v (Materialized.Delete { select = "no-slash" }) with
  | exception Materialized.Bad_select _ -> ()
  | _ -> Alcotest.fail "expected Bad_select");
  match
    Materialized.apply v
      (Materialized.Replace_value { select = "/data/book[9]/title"; value = "x" })
  with
  | exception Materialized.Bad_select _ -> ()
  | _ -> Alcotest.fail "expected Bad_select for out-of-range index"

(* A position on the root step: the root is the only [data], so
   [data[2]] and [data[3]] match nothing, while [data[1]] is the root. *)
let test_root_index () =
  let v =
    Materialized.create ~enforce:false
      (Xml.Doc.of_string
         "<data><book><title>A</title></book><book><title>B</title></book></data>")
      ~guard:"MORPH book [ title ]"
  in
  let refused update =
    match Materialized.apply v update with
    | exception Materialized.Bad_select _ -> ()
    | v' ->
        Alcotest.failf "expected Bad_select, got %s"
          (Xml.Printer.to_string (Materialized.source v'))
  in
  refused (Materialized.Replace_value { select = "/data[2]/book/title"; value = "x" });
  refused (Materialized.Delete { select = "/data[3]/book[1]" });
  let v1 =
    Materialized.apply v
      (Materialized.Replace_value { select = "/data[1]/book[2]/title"; value = "x" })
  in
  Alcotest.(check string) "data[1] is the root"
    "<data><book><title>A</title></book><book><title>x</title></book></data>"
    (Xml.Printer.to_string (Materialized.source v1))

let test_update_value_store_level () =
  let store = Store.Shredded.shred (Xml.Doc.of_string fig_a) in
  let guide = Store.Shredded.guide store in
  let title = List.hd (Xml.Dataguide.match_label guide "title") in
  let id = (Store.Shredded.sequence store title).(0) in
  let store2 = Store.Shredded.update_value store id "PATCHED LONGER VALUE" in
  Alcotest.(check string) "patched" "PATCHED LONGER VALUE"
    (Store.Shredded.node store2 id).Store.Shredded.value;
  (* Every other record survives the offset shift. *)
  for i = 0 to Store.Shredded.node_count store - 1 do
    if i <> id then begin
      let a = Store.Shredded.node store i and b = Store.Shredded.node store2 i in
      Alcotest.(check string) "name intact" a.Store.Shredded.name b.Store.Shredded.name;
      Alcotest.(check string) "value intact" a.Store.Shredded.value b.Store.Shredded.value
    end
  done

(* A value update that selects k nodes is one batched store write: one new
   generation, the same write bytes as k single-node writes, and no full
   refresh. *)
let test_value_update_batched () =
  let v = view () in
  let generation = Store.Shredded.generation (Materialized.store v) in
  let stats = Store.Shredded.stats (Materialized.store v) in
  let before = Store.Io_stats.snapshot stats in
  let v' =
    Materialized.apply v
      (Materialized.Replace_value { select = "/data/book/author/name"; value = "SAME" })
  in
  let d = Store.Io_stats.diff (Store.Io_stats.snapshot stats) before in
  Alcotest.(check string) "three names rewritten" "3"
    (Xquery.Value.to_string (Materialized.query v' {|count(//name[. = "SAME"])|}));
  Alcotest.(check int) "one generation minted" (generation + 1)
    (Store.Shredded.generation (Materialized.store v'));
  Alcotest.(check int) "write bytes" 54 d.Store.Io_stats.bytes_written;
  Alcotest.(check int) "fast path" 0 (Materialized.full_refreshes v')

let test_sequence_of_updates () =
  let v = view () in
  let v =
    List.fold_left Materialized.apply v
      [
        Materialized.Replace_value { select = "/data/book[1]/title"; value = "First" };
        Materialized.Replace_value { select = "/data/book[2]/title"; value = "Second" };
        Materialized.Replace_value { select = "/data/book[1]/author[2]/name"; value = "Bee" };
      ]
  in
  let s = Xml.Printer.to_string (Materialized.output v) in
  Alcotest.(check bool) "first" true (Tutil.contains s "<title>First</title>");
  Alcotest.(check bool) "second" true (Tutil.contains s "<title>Second</title>");
  Alcotest.(check bool) "renamed author" true (Tutil.contains s "<name>Bee</name>");
  Alcotest.(check int) "all fast" 0 (Materialized.full_refreshes v)

let suite =
  [
    Alcotest.test_case "create materializes" `Quick test_create_materializes;
    Alcotest.test_case "query the view" `Quick test_query_view;
    Alcotest.test_case "value update: fast path" `Quick test_value_update_fast_path;
    Alcotest.test_case "value update: multi-select" `Quick test_value_update_multi_select;
    Alcotest.test_case "insert: full refresh" `Quick test_insert_refreshes;
    Alcotest.test_case "delete: full refresh" `Quick test_delete_refreshes;
    Alcotest.test_case "rename: full refresh" `Quick test_rename_refreshes;
    Alcotest.test_case "rename breaks guard loudly" `Quick test_rename_breaks_guard_loudly;
    Alcotest.test_case "rename to @name refused" `Quick test_rename_to_attribute_name;
    Alcotest.test_case "bad selects" `Quick test_bad_select;
    Alcotest.test_case "root index matches only 1" `Quick test_root_index;
    Alcotest.test_case "store-level value patch" `Quick test_update_value_store_level;
    Alcotest.test_case "sequence of updates" `Quick test_sequence_of_updates;
    Alcotest.test_case "value update: one batched write" `Quick
      test_value_update_batched;
  ]

(* Consistency: a chain of random value updates through the view equals a
   fresh view built from the equally-updated source. *)
let prop_value_updates_consistent =
  QCheck2.Test.make ~name:"mapped value updates = rebuild" ~count:40
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (pair (int_range 1 2) (oneofl [ "zap"; "pow"; "thud" ])))
    (fun updates ->
      let base = Xml.Doc.of_string fig_a in
      let v0 =
        Materialized.create ~enforce:false base ~guard:Workloads.Figures.example_guard
      in
      let apply_all view =
        List.fold_left
          (fun view (book, value) ->
            Materialized.apply view
              (Materialized.Replace_value
                 { select = Printf.sprintf "/data/book[%d]/title" book; value }))
          view updates
      in
      let via_view = apply_all v0 in
      (* Rebuild from the view's own updated source. *)
      let rebuilt =
        Materialized.create ~enforce:false
          (Xml.Doc.of_tree (Materialized.source via_view))
          ~guard:Workloads.Figures.example_guard
      in
      Xml.Tree.equal (Materialized.output via_view) (Materialized.output rebuilt)
      && Materialized.full_refreshes via_view = 0)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_value_updates_consistent ]

(* The view keeps the document indexed at [create] and at each structural
   refresh, and resolves value writes against it: after an insert moves
   every later id, a value write still lands on the nodes a full rebuild of
   the same edited source would hold. *)
let test_value_update_after_refresh () =
  let guard = "MORPH person [ person.name emailaddress city ]" in
  let fresh v =
    Materialized.create ~enforce:false (Xml.Doc.of_tree (Materialized.source v)) ~guard
  in
  let same what v =
    Alcotest.(check string) what
      (Xml.Printer.to_string (Materialized.output (fresh v)))
      (Xml.Printer.to_string (Materialized.output v))
  in
  let v =
    Materialized.create ~enforce:false
      (Workloads.Xmark.to_doc ~seed:7 ~factor:0.002 ())
      ~guard
  in
  let v = Materialized.apply v (Replace_value { select = "/site/people/person/name"; value = "N" }) in
  same "value write = rebuild" v;
  let v =
    Materialized.apply v
      (Insert_child
         { select = "/site/people/person[1]";
           child = Xml.Tree.element "emailaddress" [ Xml.Tree.text "e@x" ] })
  in
  let v =
    Materialized.apply v (Replace_value { select = "/site/people/person[2]/name"; value = "M" })
  in
  Alcotest.(check int) "one refresh" 1 (Materialized.full_refreshes v);
  same "value write after refresh = rebuild" v

let suite =
  suite
  @ [ Alcotest.test_case "value update after refresh = rebuild" `Quick
        test_value_update_after_refresh ]
