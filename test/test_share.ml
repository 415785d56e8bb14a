(* A tree render builds a subtree in a closest run that several parents
   share once, and hands each parent the same immutable tree.  Physical
   identity is then coarser than node identity.  Two properties check
   that nothing observable depends on it, over documents and guards that
   reach shared runs: XQuery answers over a shared tree equal those over
   its unshared copy, re-parsed from its bytes; and the tree render
   writes the bytes, stats and I/O charges of the bytes walk, as
   [Test_stream]'s three-path property checks on documents and guards
   that almost never reach a shared run.  Each prints how many cases
   shared a subtree and fails when none did, so neither passes without
   exercising it. *)

open Xmorph

(* Element visits of [t] that meet an element already met: physically
   the same block, reached by a second path.  Elements are grouped by
   their structural hash first, so only equal-looking ones are compared. *)
let shared_subtrees t =
  let seen = Hashtbl.create 64 and repeats = ref 0 in
  let rec visit t =
    match t with
    | Xml.Tree.Text _ -> ()
    | Xml.Tree.Element { children; _ } ->
        let h = Hashtbl.hash t in
        let same = Option.value (Hashtbl.find_opt seen h) ~default:[] in
        if List.exists (fun u -> u == t) same then incr repeats
        else Hashtbl.replace seen h (t :: same);
        List.iter visit children
  in
  visit t;
  !repeats

(* DBLP-like documents: entries [e] of zero to three authors [a] beside
   one title [t], with an optional year [y], and sometimes a random
   subtree of [Gen.gen_tree], whose labels recur across levels.  The
   authors of one entry share its title's closest run.  Mixed with
   [Gen.gen_tree]'s documents. *)
let gen_entries =
  QCheck2.Gen.(
    let gen_leaf name =
      let* v = oneofl [ "x"; "y"; "1984"; "a & b" ] in
      return (Xml.Tree.element name [ Xml.Tree.text v ])
    in
    let gen_entry =
      let* authors = list_size (int_range 0 3) (gen_leaf "a") in
      let* v = oneofl [ "x"; "t1"; "1984" ] in
      let* year = opt (gen_leaf "y") in
      let* extra = opt Gen.gen_tree in
      let title = Xml.Tree.element "t" (Xml.Tree.text v :: Option.to_list year) in
      return (Xml.Tree.element "e" (authors @ (title :: Option.to_list extra)))
    in
    let* entries = list_size (int_range 1 5) gen_entry in
    return (Xml.Tree.element "r" entries))

let gen_tree = QCheck2.Gen.(frequency [ (3, gen_entries); (1, Gen.gen_tree) ])

(* A guard over the document's labels, entries' first: a random one, one
   of the shapes that turn a run shared by several parents into
   duplicated subtrees, or an author guard, whose authors share their
   entry's title, with the value filters, RESTRICT, ORDER-BY and NEW
   nodes that select and reorder runs. *)
let gen_guard tree =
  QCheck2.Gen.(
    let doc = Xml.Doc.of_tree tree in
    let tt = Xml.Doc.types doc in
    let labels = ref [] in
    Xml.Type_table.iter tt (fun ty -> labels := Xml.Type_table.label tt ty :: !labels);
    let label = frequency [ (2, oneofl [ "a"; "t"; "y"; "e" ]); (1, oneofl !labels) ] in
    let vocab =
      { Test_guard_prop.label; literal = oneofl [ "x"; "1984" ]; order_by = true }
    in
    frequency
      [ (1, map Ast.to_string (Test_guard_prop.gen_guard_over vocab));
        ( 3,
          let* a = label and* b = label and* c = label in
          oneofl
            [ Printf.sprintf "MORPH %s [ %s [ %s ] ]" a b c;
              Printf.sprintf "MORPH %s [ %s ]" a b;
              Printf.sprintf "MORPH %s [ %s %s ]" a b c;
              Printf.sprintf "MUTATE %s [ %s ]" a b ] );
        ( 2,
          oneofl
            [ "MORPH a [ t [ y ] ]";
              "MORPH a [ t = \"x\" [ y ] ]";
              "MORPH a [ t [ y ] ] ORDER-BY t desc";
              "MORPH (RESTRICT a [ y ]) [ t ]";
              "MORPH a [ (NEW n) [ t [ y ] ] ]";
              "MORPH a [ e [ t ] ]";
              "MORPH y [ a ]";
              "MUTATE (NEW n) [ a ]" ] ) ])

(* Queries, picked by index once the tree is rendered: [l] and [m] index
   its element names, [v] its text values. *)
let templates =
  [| (fun l _ _ -> Printf.sprintf "//%s" l);
     (fun l _ _ -> Printf.sprintf "count(//%s)" l);
     (fun l m _ -> Printf.sprintf "//%s//%s" l m);
     (fun l m _ -> Printf.sprintf "count(//%s//%s)" l m);
     (fun l _ _ -> Printf.sprintf "//%s[1]" l);
     (fun l _ _ -> Printf.sprintf "//%s[position() = 2]" l);
     (fun l _ _ -> Printf.sprintf "//%s[last()]" l);
     (fun l m _ -> Printf.sprintf "count(//%s[position() < 3]//%s)" l m);
     (fun l m v -> Printf.sprintf "//%s[%s = %S]" l m v);
     (fun l _ v -> Printf.sprintf "count(//%s[. = %S])" l v);
     (fun l m _ -> Printf.sprintf "for $x in //%s return count($x//%s)" l m);
     (fun l m _ -> Printf.sprintf "//%s/%s/text()" l m);
     (fun l _ _ -> Printf.sprintf "distinct-values(//%s)" l) |]

let gen_case =
  QCheck2.Gen.(
    let* tree = gen_tree in
    let* guard = gen_guard tree in
    let* queries =
      list_size (int_range 4 8)
        (quad (int_bound (Array.length templates - 1)) nat nat nat)
    in
    return (tree, guard, queries))

let names_and_values t =
  let names = ref [] and values = ref [] in
  let rec visit = function
    | Xml.Tree.Text s -> if not (String.contains s '"') then values := s :: !values
    | Xml.Tree.Element { name; children; _ } ->
        if name <> "" then names := name :: !names;
        List.iter visit children
  in
  visit t;
  (Array.of_list (List.sort_uniq compare !names), Array.of_list ("" :: !values))

let answer tree q =
  match Xquery.Eval.run tree q with
  | items ->
      Ok
        (List.map
           (function
             | Xquery.Value.Node t -> Xml.Printer.to_string t
             | item -> Xquery.Value.string_value item)
           items)
  | exception Xquery.Eval.Error m -> Error m
  | exception Xquery.Qparse.Error { msg; _ } -> Error msg

(* Render [guard] over [tree]'s store, or [None] when it does not
   compile; and whether some subtree of the result is shared. *)
let render tree guard =
  let store = Store.Shredded.shred (Xml.Doc.of_tree tree) in
  match Interp.compile ~enforce:false (Store.Shredded.guide store) guard with
  | exception _ -> None
  | compiled ->
      let rendered = Interp.render store compiled in
      Some (compiled, rendered, shared_subtrees rendered > 0)

let print_case (tree, guard, _) = Printf.sprintf "%s\n%s" (Xml.Printer.to_string tree) guard

(* [prop] over 300 cases from a fixed seed, counting in [shared] the
   cases whose render shares a subtree; printed, and none is a failure. *)
let check_sharing name prop =
  let shared = ref 0 in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 2012 |])
    (QCheck2.Test.make ~name ~count:300 ~print:print_case
       (* unshrunk, as [Test_stream]'s three-path property is *)
       (QCheck2.Gen.no_shrink gen_case) (prop shared));
  Printf.printf "%s: %d of 300 cases shared a subtree\n" name !shared;
  if !shared = 0 then Alcotest.failf "%s: no case shared a subtree" name

let test_answers_as_copy () =
  check_sharing "a shared tree answers as its unshared copy"
    (fun shared (tree, guard, queries) ->
      match render tree guard with
      | None -> true
      | Some (_, rendered, sharing) -> (
          (* A render can write two attributes of one name, which do not
             parse back; such a case has no copy to compare with. *)
          match Xml.Parser.parse (Xml.Printer.to_string rendered) with
          | exception Xml.Parser.Error _ -> true
          | copy ->
              if sharing then incr shared;
              let names, values = names_and_values rendered in
              let pick a i = a.(i mod Array.length a) in
              List.for_all
                (fun (k, l, m, v) ->
                  let q = templates.(k) (pick names l) (pick names m) (pick values v) in
                  answer rendered q = answer copy q
                  || QCheck2.Test.fail_reportf "%s answers differently" q)
                queries))

(* The three ways out of the renderer, as [Test_stream] compares them:
   same bytes, stats and I/O charges, each on a fresh store. *)
let test_three_paths_share () =
  check_sharing "shared trees: to_buffer = to_trees = stream"
    (fun shared (tree, guard, _) ->
      match render tree guard with
      | None -> true
      | Some (compiled, _, sharing) ->
          if sharing then incr shared;
          let fresh () =
            let store = Store.Shredded.shred (Xml.Doc.of_tree tree) in
            Store.Io_stats.reset (Store.Shredded.stats store);
            store
          in
          let shape = compiled.Interp.shape in
          let b = Test_stream.via_buffer (fresh ()) shape in
          b = Test_stream.via_trees (fresh ()) shape && b = Test_stream.via_stream (fresh ()) shape)

let suite =
  [
    Alcotest.test_case "a shared tree answers as its unshared copy" `Quick
      test_answers_as_copy;
    Alcotest.test_case "shared trees: three paths agree" `Quick test_three_paths_share;
  ]
