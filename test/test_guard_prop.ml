(* Property tests over the guard language itself: random guard ASTs
   pretty-print to text that re-parses to the same AST, and random guards
   never crash the compiler (they either compile or fail with the documented
   exceptions). *)

open Xmorph

(* The words a generated guard is made of: the labels its patterns name,
   the literals of its value filters, and whether ORDER-BY appears. *)
type vocab = {
  label : string QCheck2.Gen.t;
  literal : string QCheck2.Gen.t;
  order_by : bool;
}

let gen_label =
  QCheck2.Gen.oneofl
    [ "author"; "name"; "book"; "title"; "publisher"; "data"; "x-1"; "book.author" ]

let default_vocab =
  { label = gen_label; literal = QCheck2.Gen.oneofl [ "A"; "B"; "x y" ]; order_by = false }

let gen_new_label = QCheck2.Gen.oneofl [ "wrap"; "extra"; "scribe" ]

let rec gen_pattern v depth =
  QCheck2.Gen.(
    let leaf =
      let* l = v.label in
      let* bang = bool in
      return (Ast.Label { label = l; bang })
    in
    if depth = 0 then leaf
    else
      frequency
        ([
           (4, leaf);
           ( 3,
             let* p =
               frequency [ (5, gen_pattern v 0); (1, map (fun l -> Ast.New l) gen_new_label) ]
             in
             let* n = int_range 1 3 in
             let* items = list_size (return n) (gen_item v (depth - 1)) in
             return (Ast.Tree (p, items)) );
           (1, map (fun p -> Ast.Children p) (gen_pattern v 0));
           (1, map (fun p -> Ast.Descendants p) (gen_pattern v 0));
           (1, map (fun p -> Ast.Clone p) (gen_pattern v (depth - 1)));
           (1, map (fun l -> Ast.New l) gen_new_label);
           (1, map (fun p -> Ast.Restrict p) (gen_pattern v (depth - 1)));
           ( 1,
             let* p = gen_pattern v 0 in
             let* lit = v.literal in
             return (Ast.Value_eq (p, lit)) );
         ]
        @
        if v.order_by then
          [
            ( 1,
              let* p = gen_pattern v (depth - 1) in
              let* key = v.label in
              let* desc = bool in
              return (Ast.Order_by (p, key, desc)) );
          ]
        else []))

and gen_item v depth =
  QCheck2.Gen.(
    frequency
      [ (6, gen_pattern v depth); (1, return Ast.Star); (1, return Ast.Dbl_star) ])

let gen_mutate_pattern v depth =
  QCheck2.Gen.(
    frequency
      [ (5, gen_pattern v depth); (1, map (fun p -> Ast.Drop p) (gen_pattern v 0)) ])

let gen_stage v =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          let* n = int_range 1 2 in
          let* ps = list_size (return n) (gen_pattern v 2) in
          return (Ast.Morph ps) );
        ( 3,
          let* n = int_range 1 2 in
          let* ps = list_size (return n) (gen_mutate_pattern v 2) in
          return (Ast.Mutate ps) );
        ( 1,
          let* a = v.label in
          let* b = gen_new_label in
          return (Ast.Translate [ (a, b) ]) );
      ])

let gen_guard_over v =
  QCheck2.Gen.(
    let* base =
      let* n = int_range 1 3 in
      let* stages = list_size (return n) (gen_stage v) in
      match List.map (fun s -> Ast.Stage s) stages with
      | [] -> assert false
      | first :: rest ->
          return (List.fold_left (fun acc g -> Ast.Compose (acc, g)) first rest)
    in
    frequency
      [
        (5, return base);
        (1, return (Ast.Cast (Ast.Cast_weak, base)));
        (1, return (Ast.Cast (Ast.Cast_narrowing, base)));
        (1, return (Ast.Cast (Ast.Cast_widening, base)));
        (1, return (Ast.Type_fill base));
      ])

let gen_guard = gen_guard_over default_vocab

let prop_pp_parse_roundtrip =
  QCheck2.Test.make ~name:"pp/parse roundtrip for random guards" ~count:500
    gen_guard (fun g ->
      let printed = Ast.to_string g in
      match Parse.guard printed with
      | reparsed -> Ast.to_string reparsed = printed
      | exception _ -> false)

let prop_compiler_total =
  (* Compiling a random guard against a real shape either succeeds or fails
     with a documented exception — never anything else. *)
  QCheck2.Test.make ~name:"compiler is total on random guards" ~count:300
    gen_guard (fun g ->
      let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
      let guide = Xml.Dataguide.of_doc doc in
      match Interp.compile ~enforce:false guide (Ast.to_string g) with
      | _ -> true
      | exception Interp.Error _ -> true
      | exception Tshape.Error _ -> true
      | exception _ -> false)

let prop_compiled_guards_render =
  (* Whatever compiles must render and serialize without raising. *)
  QCheck2.Test.make ~name:"compiled guards render" ~count:300 gen_guard (fun g ->
      let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
      let store = Store.Shredded.shred doc in
      match Interp.compile ~enforce:false (Store.Shredded.guide store) (Ast.to_string g) with
      | exception _ -> true
      | compiled -> (
          match Interp.render store compiled with
          | tree -> String.length (Xml.Printer.to_string tree) >= 0
          | exception _ -> false))

let prop_stream_equals_tree_random_guards =
  QCheck2.Test.make ~name:"stream = materialize for random guards" ~count:200
    gen_guard (fun g ->
      let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
      let store = Store.Shredded.shred doc in
      match Interp.compile ~enforce:false (Store.Shredded.guide store) (Ast.to_string g) with
      | exception _ -> true
      | compiled ->
          let b1 = Buffer.create 64 and b2 = Buffer.create 64 in
          ignore (Render.stream store compiled.Interp.shape (Buffer.add_string b1));
          ignore (Render.to_buffer store compiled.Interp.shape b2);
          Buffer.contents b1 = Buffer.contents b2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pp_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_compiler_total;
    QCheck_alcotest.to_alcotest prop_compiled_guards_render;
    QCheck_alcotest.to_alcotest prop_stream_equals_tree_random_guards;
  ]
