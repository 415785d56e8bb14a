open Xmorph

let analyze src guard =
  let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string src) in
  let sem = Semantics.eval guide (Algebra.of_ast (Parse.guard guard)) in
  Loss.analyze guide sem.Semantics.shape

let classification src guard = (analyze src guard).Report.classification

let check_class msg src guard expected =
  Alcotest.(check string) msg
    (Report.classification_to_string expected)
    (Report.classification_to_string (classification src guard))

let fig_a = Workloads.Figures.instance_a
let fig_b = Workloads.Figures.instance_b
let fig_c = Workloads.Figures.instance_c

let test_example_strongly_typed () =
  (* Sec. I: "The guard given above turns out to be strongly-typed". *)
  check_class "on (a)" fig_a Workloads.Figures.example_guard Report.Strongly_typed;
  check_class "on (b)" fig_b Workloads.Figures.example_guard Report.Strongly_typed;
  check_class "on (c)" fig_c Workloads.Figures.example_guard Report.Strongly_typed

let test_widening_guard_on_c () =
  (* Sec. I / Fig. 3: the !title guard is widening on instance (c): "both
     titles, X and Y, are closest to the first publisher, W, which adds
     data". *)
  let r = analyze fig_c Workloads.Figures.widening_guard in
  Alcotest.(check string) "widening" "widening"
    (Report.classification_to_string r.Report.classification);
  Alcotest.(check bool) "reports a max increase" true
    (List.exists (fun v -> v.Report.kind = Report.Max_increased) r.Report.violations)

let test_mutate_swap_nonadditive () =
  (* Sec. V-B: MUTATE name [ author ] is non-additive when author-name is
     1..1 both ways. *)
  let src = {|<data><author><name>A</name></author><author><name>B</name></author></data>|} in
  check_class "swap 1..1" src "MUTATE name [ author ]" Report.Strongly_typed

let test_mutate_swap_noninclusive_with_optional () =
  (* Sec. V-B: with author->name at 0..1 the same mutation is potentially
     non-inclusive: authors without a name are discarded. *)
  let src = {|<data><author/><author><name>B</name></author></data>|} in
  let r = analyze src "MUTATE name [ author ]" in
  Alcotest.(check bool) "min raised violation" true
    (List.exists (fun v -> v.Report.kind = Report.Min_raised) r.Report.violations);
  (* And the paper's fix is inclusive: MUTATE data [ name author ]. *)
  let r2 = analyze src "MUTATE data [ name author ]" in
  Alcotest.(check bool) "no min violation" false
    (List.exists (fun v -> v.Report.kind = Report.Min_raised) r2.Report.violations)

let test_duplicating_reshape_is_additive () =
  (* Routing books through authors duplicates shared books. *)
  let r = analyze fig_a "MORPH data [ author [ book ] ]" in
  Alcotest.(check bool) "additive" true
    (List.exists (fun v -> v.Report.kind = Report.Max_increased) r.Report.violations)

let test_omitted_types_reported () =
  let r = analyze fig_a "MORPH author [ name ]" in
  Alcotest.(check bool) "publisher omitted" true
    (List.exists (fun t -> Tutil.contains t "publisher") r.Report.omitted_types);
  Alcotest.(check bool) "kept type not omitted" false
    (List.exists (fun t -> Tutil.contains t "author.name") r.Report.omitted_types)

let test_admissibility () =
  let strong = Report.Strongly_typed
  and narrow = Report.Narrowing
  and widen = Report.Widening
  and weak = Report.Weakly_typed in
  Alcotest.(check bool) "default strong" true (Loss.admissible None strong);
  Alcotest.(check bool) "default narrow" false (Loss.admissible None narrow);
  Alcotest.(check bool) "default widen" false (Loss.admissible None widen);
  Alcotest.(check bool) "cast-narrowing" true
    (Loss.admissible (Some Ast.Cast_narrowing) narrow);
  Alcotest.(check bool) "cast-narrowing rejects widening" false
    (Loss.admissible (Some Ast.Cast_narrowing) widen);
  Alcotest.(check bool) "cast-widening" true
    (Loss.admissible (Some Ast.Cast_widening) widen);
  Alcotest.(check bool) "cast allows weak" true
    (Loss.admissible (Some Ast.Cast_weak) weak);
  Alcotest.(check bool) "any cast allows strong" true
    (Loss.admissible (Some Ast.Cast_narrowing) strong)

let test_check_rejects () =
  let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string fig_c) in
  let sem =
    Semantics.eval guide (Algebra.of_ast (Parse.guard Workloads.Figures.widening_guard))
  in
  (match Loss.check guide sem.Semantics.shape with
  | exception Loss.Rejected r ->
      Alcotest.(check string) "rejected as widening" "widening"
        (Report.classification_to_string r.Report.classification)
  | _ -> Alcotest.fail "expected rejection");
  (* The CAST-WIDENING cast admits it. *)
  match Loss.check ~cast:(Some Ast.Cast_widening) guide sem.Semantics.shape with
  | r ->
      Alcotest.(check string) "admitted" "widening"
        (Report.classification_to_string r.Report.classification)

let test_interp_enforcement () =
  let doc = Xml.Doc.of_string fig_c in
  (* Default enforcement rejects the widening guard... *)
  (match Interp.transform_doc doc Workloads.Figures.widening_guard with
  | exception Loss.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* ...a CAST-WIDENING wrapper admits it... *)
  let tree, _ =
    Interp.transform_doc doc ("CAST-WIDENING (" ^ Workloads.Figures.widening_guard ^ ")")
  in
  Alcotest.(check bool) "rendered" true (Xml.Tree.count_elements tree > 0);
  (* ...and so does ~enforce:false. *)
  let _, t = Interp.transform_doc ~enforce:false doc Workloads.Figures.widening_guard in
  Alcotest.(check string) "still classified" "widening"
    (Report.classification_to_string t.Interp.loss.Report.classification)

let test_predicted_cards () =
  let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string fig_a) in
  let sem =
    Semantics.eval guide (Algebra.of_ast (Parse.guard "MORPH data [ author [ book ] ]"))
  in
  match sem.Semantics.shape.Tshape.roots with
  | [ data ] -> (
      match data.Tshape.children with
      | [ author ] -> (
          (* Def. 7: predicted card of data->author = pathCard(data, author)
             = 2..2 books x 1..2 authors = 2..4. *)
          Alcotest.(check string) "data->author predicted" "2..4"
            (Xmutil.Card.to_string (Loss.predicted_card guide author));
          match author.Tshape.children with
          | [ book ] ->
              (* author->book: each author is closest to exactly 1 book. *)
              Alcotest.(check string) "author->book predicted" "1..1"
                (Xmutil.Card.to_string (Loss.predicted_card guide book))
          | _ -> Alcotest.fail "expected book under author")
      | _ -> Alcotest.fail "expected author under data")
  | _ -> Alcotest.fail "expected single root"

let test_target_path_card_cross_roots () =
  let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string fig_a) in
  let sem =
    Semantics.eval guide (Algebra.of_ast (Parse.guard "MORPH author book"))
  in
  match sem.Semantics.shape.Tshape.roots with
  | [ a; b ] ->
      Alcotest.(check string) "different trees -> 0..0" "0..0"
        (Xmutil.Card.to_string (Loss.target_path_card guide a b))
  | _ -> Alcotest.fail "expected two roots"

let test_identity_mutate_strong_on_random_docs () =
  (* MUTATE <root-label> is the identity: always strongly-typed. *)
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"identity mutate strongly typed" ~count:100
       Gen.gen_doc (fun doc ->
         let guide = Xml.Dataguide.of_doc doc in
         let root_label =
           Xml.Type_table.label (Xml.Dataguide.types guide) (Xml.Dataguide.root guide)
         in
         let sem =
           Semantics.eval guide
             (Algebra.of_ast (Parse.guard ("MUTATE " ^ root_label)))
         in
         (Loss.analyze guide sem.Semantics.shape).Report.classification
         = Report.Strongly_typed))

(* The pair loop that decided Theorems 1-2 before the cell analysis, kept
   verbatim as the reference the cells must agree with. *)
module Pairwise = struct
  open Xmutil

  let predicted_card = Loss.predicted_card

  let node_qname guide (n : Tshape.node) =
    match n.source with
    | Some s -> Xml.Type_table.qname (Xml.Dataguide.types guide) s
    | None -> n.out_name ^ " (new)"

  (* The pairwise analysis is quadratic in the number of kept types, so both
     path-cardinality lookups are precomputed:

     - source side: [src_prod.(ty).(d)] is the product of edge adornments on
       the path from depth [d] (exclusive) down to [ty]; Def. 6's
       [pathCard(t, u)] is then [src_prod.(u).(lca_depth t u)], where the LCA
       depth is the common-prefix length of the two types' ancestor chains;
     - target side: the same cumulative products over predicted edge
       cardinalities (Def. 7), per target node, with its ancestor chain.

     Both chains are int arrays, root first, so each pair costs two prefix
     scans and no parent walks, hashing or allocation.

     This keeps the compile phase flat and tiny as the paper reports (the
     20 ms "compile" line of Fig. 10). *)
  let analyze_impl ?(warnings = []) guide (shape : Tshape.t) : Report.loss_report =
    let nodes = ref [] in
    Tshape.iter shape (fun n -> if n.source <> None then nodes := n :: !nodes);
    let nodes = Array.of_list (List.rev !nodes) in
    let tt = Xml.Dataguide.types guide in
    let n_types = Xml.Type_table.count tt in
    (* Source cumulative products and ancestor chains; type ids are
       interned parents-first. *)
    let src_prod = Array.make n_types [||] and chains = Array.make n_types [||] in
    Xml.Type_table.iter tt (fun ty ->
        let k = Xml.Type_table.depth tt ty in
        let a = Array.make (k + 1) Card.one in
        (match Xml.Type_table.parent tt ty with
        | None ->
            if k >= 1 then a.(0) <- Xml.Dataguide.card guide ty;
            chains.(ty) <- [| ty |]
        | Some p ->
            let ap = src_prod.(p) in
            let c = Xml.Dataguide.card guide ty in
            for d = 0 to k - 1 do
              a.(d) <- Card.mul ap.(d) c
            done;
            chains.(ty) <- Array.append chains.(p) [| ty |]);
        src_prod.(ty) <- a);
    let src_path_card t u =
      if t = u then Card.one
      else
        let l = Dewey.common_prefix_len chains.(t) chains.(u) in
        if l >= Array.length chains.(u) then Card.one else src_prod.(u).(l)
    in
    (* Target side: per visible node, its ancestor chain (uids, root first)
       and cumulative predicted products. *)
    let tgt_info = Hashtbl.create 64 in
    let rec build (n : Tshape.node) (anc_uids : int list) (prods : Card.t list) =
      (* [prods] is, per ancestor depth d (same order as anc_uids, plus the
         node itself at the end), the product from depth d down to [n]. *)
      let pred = predicted_card guide n in
      let prods = List.map (fun p -> Card.mul p pred) prods @ [ Card.one ] in
      let anc_uids = anc_uids @ [ n.uid ] in
      Hashtbl.replace tgt_info n.uid
        (Array.of_list anc_uids, Array.of_list prods);
      List.iter (fun c -> build c anc_uids prods) n.children
    in
    List.iter (fun r -> build r [] []) shape.Tshape.roots;
    let tgt_nodes =
      Array.map (fun (n : Tshape.node) -> Hashtbl.find tgt_info n.uid) nodes
    in
    (* Between distinct target nodes [i] and [j]; the deepest common ancestor
       is the last entry of the chains' common prefix. *)
    let tgt_path_card i j =
      let anc_a, _ = tgt_nodes.(i) and anc_b, prods_b = tgt_nodes.(j) in
      if anc_a.(0) <> anc_b.(0) then Card.zero
      else prods_b.(Dewey.common_prefix_len anc_a anc_b - 1)
    in
    let violations = ref [] in
    let push kind a b src tgt =
      violations :=
        { Report.kind; from_type = node_qname guide a; to_type = node_qname guide b;
          source_card = src; target_card = tgt }
        :: !violations
    in
    let n = Array.length nodes in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let a = nodes.(i) and b = nodes.(j) in
          match (a.source, b.source) with
          | Some sa, Some sb when sa <> sb ->
              let src = src_path_card sa sb in
              let tgt = tgt_path_card i j in
              if Card.min_raised_from_zero ~src ~tgt then
                push Report.Min_raised a b src tgt;
              if Card.max_increased ~src ~tgt then
                push Report.Max_increased a b src tgt
          | _ -> ()
        end
      done
    done;
    let kept = Hashtbl.create 16 in
    Array.iter
      (fun (x : Tshape.node) ->
        match x.source with Some s -> Hashtbl.replace kept s () | None -> ())
      nodes;
    let omitted =
      List.filter_map
        (fun ty ->
          if Hashtbl.mem kept ty then None
          else Some (Xml.Type_table.qname (Xml.Dataguide.types guide) ty))
        (Xml.Dataguide.all_types guide)
    in
    (* The value-filter extension discards instances by value, which no
       cardinality reasoning can see: treat any filter as potentially
       non-inclusive. *)
    let filters = ref [] in
    Tshape.iter_all shape (fun n ->
        match n.value_filter with
        | Some v ->
            filters :=
              Printf.sprintf
                "value filter %s = %S may discard instances (narrowing)"
                n.out_name v
              :: !filters
        | None -> ());
    let has_min =
      !filters <> []
      || List.exists (fun v -> v.Report.kind = Report.Min_raised) !violations
    in
    let has_max =
      List.exists (fun v -> v.Report.kind = Report.Max_increased) !violations
    in
    let classification : Report.classification =
      match (has_min, has_max) with
      | false, false -> Strongly_typed
      | true, false -> Narrowing
      | false, true -> Widening
      | true, true -> Weakly_typed
    in
    {
      classification;
      violations = List.rev !violations;
      omitted_types = omitted;
      warnings = warnings @ List.rev !filters;
    }
end

let compiled guide guard =
  match Semantics.eval guide (Algebra.of_ast (Parse.guard guard)) with
  | sem -> Some sem
  | exception _ -> None

(* Classification, ordered violations, omitted types and warnings, all
   structurally equal to the pair loop's. *)
let agrees guide (sem : Semantics.result) =
  let warnings = sem.warnings in
  Pairwise.analyze_impl ~warnings guide sem.shape = Loss.analyze ~warnings guide sem.shape

let check_agrees msg guide (sem : Semantics.result) =
  let warnings = sem.warnings in
  let expected = Pairwise.analyze_impl ~warnings guide sem.shape
  and actual = Loss.analyze ~warnings guide sem.shape in
  if expected <> actual then
    Alcotest.failf "%s: the pair loop gave\n%s\nthe cells gave\n%s" msg
      (Report.loss_to_string expected) (Report.loss_to_string actual)

(* How many of [guards] compile against [guide]; each that does must agree. *)
let check_guards name guide guards =
  List.fold_left
    (fun n g ->
      match compiled guide g with
      | Some sem ->
          check_agrees (name ^ ": " ^ g) guide sem;
          n + 1
      | None -> n)
    0 guards

(* Every guard literal of the unit tests and the cram files. *)
let literal_guards =
  [
    "  MORPH   author[name book[title]]  ";
    "(MORPH author)";
    "CAST (MUTATE author [ title ])";
    "CAST (MUTATE name [ author ])";
    "CAST (TYPE-FILL MUTATE author [ title ])";
    "CAST MORPH a";
    "CAST MORPH author";
    {|CAST MUTATE (DROP title = "X")|};
    "CAST MUTATE article.year [ article ]";
    "CAST-NARROWING MORPH a";
    "CAST-NARROWING MORPH author";
    {|CAST-NARROWING MORPH author [ name = "A" ]|};
    "CAST-WIDENING (TYPE-FILL MUTATE a)";
    "CAST-WIDENING (TYPE-FILL MUTATE author [ title ])";
    "CAST-WIDENING MORPH author";
    "MORPH (DROP name)";
    "MORPH (RESTRICT a [ b ])";
    {|MORPH (RESTRICT article [ year = "1984" ]) [ title article.author ]|};
    {|MORPH (RESTRICT author [ name = "A" ]) [ name book [ title ] ]|};
    {|MORPH (RESTRICT book [ author [ name = "B" ] ]) [ title ]|};
    {|MORPH (RESTRICT dataset [ field [ units = "Jy" ] ]) [ title altname ]|};
    "MORPH (RESTRICT e [ k ]) [ v ]";
    "MORPH (RESTRICT name [ author ])";
    "MORPH (RESTRICT name [ author ]) [ title ]";
    {|MORPH (RESTRICT person [ gender = "female" ]) [ person.name city ]|};
    {|MORPH (RESTRICT publisher [ book [ author [ name = "B" ] ] ]) [ publisher.name ]|};
    "MORPH *";
    "MORPH CHILDREN author";
    "MORPH DESCENDANTS book";
    "MORPH a";
    "MORPH a [ b ]";
    "MORPH a | MUTATE b | TRANSLATE c -> d";
    {|MORPH article [ title year = "1982" ]|};
    "MORPH article [ title year ]";
    {|MORPH article.author [ title year = "1984" ]|};
    "MORPH author";
    "MORPH author [ !title ]";
    "MORPH author [ !title name publisher [ name ] ]";
    "MORPH author [ ghost ]";
    {|MORPH author [ name = "A" ]|};
    {|MORPH author [ name = "A" book [ title ] ]|};
    {|MORPH author [ name = "A" book ]|};
    {|MORPH author [ name = "B" ]|};
    {|MORPH author [ name = "NOBODY" ]|};
    "MORPH author [ name = 'A' book [ title ] ] ORDER-BY name desc";
    "MORPH author [ name ]";
    "MORPH author [ name ] ORDER-BY name";
    "MORPH author [ name ] ORDER-BY name desc";
    "MORPH author [ name ] book [ CLONE author.name ]";
    "MORPH author [ name ] book [ author.name ]";
    "MORPH author [ name ] | TRANSLATE author -> writer";
    "MORPH author [ name ] | TRANSLATE author -> writer, name -> moniker";
    "MORPH author [ name book [ title ] ]";
    "MORPH author [ name book [ title ] ] ORDER-BY name desc";
    "MORPH author [ name publisher [ name book [ title price ] ] ]";
    "MORPH author [ name title ]";
    "MORPH author [*]";
    "MORPH author [name] | MUTATE (DROP name)";
    "MORPH author [title [year]]";
    "MORPH author book";
    "MORPH b";
    "MORPH b [**]";
    "MORPH book [ * title ]";
    {|MORPH book [ title = "Y" ]|};
    "MORPH book [ title ]";
    "MORPH book [ title ] author [ (CLONE book [ title ]) ]";
    "MORPH book [ title publisher [ name ] ]";
    "MORPH book [**]";
    "MORPH book [*]";
    "MORPH book.author [ @year ]";
    "MORPH book.author.name";
    "MORPH data [ author [ * book [ ** ] ] ]";
    "MORPH data [ author [ * book ] ]";
    "MORPH data [ author [ book [ title ] ] ]";
    "MORPH data [ author [ book ] ]";
    "MORPH data [ author [ name ] ]";
    "MORPH data [ book [ author [ name ] ] ]";
    "MORPH data [ book [ author [ name ] title ] ]";
    "MORPH data [ book [ title ] ORDER-BY title desc ]";
    "MORPH data [ book [ title ] ]";
    "MORPH data [ book [ year title ] ]";
    "MORPH data [ book [*] ]";
    "MORPH data [author [* book [** publisher [*]]]]";
    "MORPH dataset [ (NEW head) [ title altname ] identifier ]";
    "MORPH dataset [ title identifier ]";
    "MORPH dataset [ title identifier ] ORDER-BY title";
    {|MORPH dataset [ title units = "deg" ]|};
    "MORPH dblp [ article [ article.author ] ]";
    "MORPH dblp [ article [ title [ year ] ] ]";
    "MORPH dblp [ article [ title year ] ORDER-BY year desc ]";
    "MORPH dblp [ article ]";
    "MORPH dblp [author [title [year [pages] url]]]";
    "MORPH e [ @year v ]";
    "MORPH incategory [ name ORDER-BY name ]";
    "MORPH item [*]";
    "MORPH k ORDER-BY k";
    "MORPH keyword [ lastname ORDER-BY lastname desc ]";
    "MORPH name = 'A'";
    "MORPH name [ title ]";
    "MORPH nothing_here";
    "MORPH p [ c ]";
    "MORPH people [ (NEW card) [ emailaddress city ] ]";
    "MORPH people [ person [ emailaddress city ] ORDER-BY city desc ]";
    "MORPH person [ person.name emailaddress city ]";
    {|MORPH person [ person.name gender = "male" ]|};
    "MORPH publisher [ name ]";
    "MORPH publisher [ publisher.name ]";
    "MORPH publisher.name";
    "MORPH r [ e [ @year ] ]";
    "MORPH title";
    {|MORPH title = "Y"|};
    "MORPH year [ v ]";
    "MUTATE (DROP a)";
    "MUTATE (DROP author)";
    "MUTATE (DROP title [ book ])";
    "MUTATE (DROP title)";
    "MUTATE (NEW entry) [ article ]";
    "MUTATE (NEW scribe) [ author ]";
    "MUTATE NEW wraps";
    "MUTATE a";
    "MUTATE author [ CLONE title ]";
    "MUTATE b [ a ]";
    "MUTATE book [ publisher [ name ] ]";
    "MUTATE data";
    "MUTATE data [ author.name author ]";
    "MUTATE data [ name author ]";
    "MUTATE datasets";
    "MUTATE dblp";
    "MUTATE name [ author ]";
    "MUTATE nosuch";
    "MUTATE r";
    "MUTATE site";
    "TRANSLATE a -> b, c -> d";
    "TRANSLATE author -> writer";
    "TRANSLATE author -> writer | MORPH writer [ name ]";
    "TRANSLATE publisher -> imprint | MORPH imprint [ imprint.name ]";
    "TYPE-FILL CAST-WIDENING MORPH a";
    "TYPE-FILL MORPH a [ zz ]";
    "TYPE-FILL MORPH author [ ghost ]";
  ]

let figure_guides =
  List.map
    (fun (name, src) -> (name, Xml.Dataguide.of_doc (Xml.Doc.of_string src)))
    [ ("(a)", fig_a); ("(b)", fig_b); ("(c)", fig_c) ]

let test_cells_figure_guards () =
  let n =
    List.fold_left
      (fun n (name, guide) -> n + check_guards name guide literal_guards)
      0 figure_guides
  in
  Alcotest.(check bool) "most literals compile on some instance" true (n >= 150)

let small_attr_doc =
  {|<r><e year="1984"><v>a</v><v>b</v></e><e><v>c</v></e><e year="1990" id="x"/></r>|}

(* The cases the cells treat specially, each named. *)
let named_cases =
  [
    ( "CLONE: two nodes of one type", fig_a,
      "MORPH author [ name ] book [ CLONE author.name ]" );
    ("CLONE under its own type", fig_a, "MUTATE author [ CLONE title ]");
    ("CLONE of a subtree", fig_a, "MORPH book [ title ] author [ (CLONE book [ title ]) ]");
    ("NEW node inside a chain", fig_a, "MORPH data [ (NEW shelf) [ book [ title ] ] ]");
    ("NEW node above a root", fig_a, "MUTATE (NEW scribe) [ author ]");
    ("NEW nodes stacked", fig_c, "MORPH (NEW a) [ (NEW b) [ author [ name ] ] title ]");
    ("multi-root forest", fig_a, "MORPH author book");
    ("multi-root forest with depth", fig_b,
     "MORPH author [ author.name ] publisher [ publisher.name book ]");
    ("attributes", small_attr_doc, "MORPH e [ @year v ]");
    ("attribute as parent", small_attr_doc, "MORPH year [ v ]");
    ("attributes moved", small_attr_doc, "MUTATE v [ @id year ]");
    ("value filters", fig_a, {|MORPH author [ name = "A" book [ title ] ]|});
    ("restrict children", fig_a, "MORPH (RESTRICT name [ author ]) [ title ]");
    ("nested restrict with a filter", fig_a,
     {|MORPH (RESTRICT book [ author [ name = "B" ] ]) [ title ]|});
    ("widening on (c)", fig_c, Workloads.Figures.widening_guard);
    ("weakly typed", fig_a, "CAST MORPH name [ book [ author ] publisher ]");
  ]

let test_cells_named_cases () =
  List.iter
    (fun (name, src, guard) ->
      let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string src) in
      match compiled guide guard with
      | Some sem -> check_agrees name guide sem
      | None -> Alcotest.failf "%s: %s does not compile" name guard)
    named_cases

(* [n] MORPHs over the document's own types: random qualified labels,
   each nested under an earlier one or starting a new tree. *)
let random_morphs guide ~seed n =
  let tt = Xml.Dataguide.types guide in
  let types = Array.of_list (Xml.Dataguide.all_types guide) in
  let rng = Random.State.make [| seed |] in
  List.init n (fun _ ->
      let k = 2 + Random.State.int rng 7 in
      let label =
        Array.init k (fun _ ->
            Xml.Type_table.qname tt types.(Random.State.int rng (Array.length types)))
      in
      let parent = Array.init k (fun i -> Random.State.int rng (i + 1) - 1) in
      let rec item i =
        let kids = List.filter (fun j -> parent.(j) = i) (List.init k Fun.id) in
        if kids = [] then label.(i)
        else label.(i) ^ " [ " ^ String.concat " " (List.map item kids) ^ " ]"
      in
      let roots = List.filter (fun j -> parent.(j) = -1) (List.init k Fun.id) in
      "MORPH " ^ String.concat " " (List.map item roots))

(* Seeded documents at the smallest and largest sizes of the oneshot
   benchmark corpus, with the Fig. 15 guards, the identity MUTATE, every
   literal guard and random MORPHs. *)
let test_cells_corpora () =
  let size lo hi i = lo *. ((hi /. lo) ** ((float_of_int i +. 0.5) /. 10.)) in
  let docs =
    List.concat_map
      (fun i ->
        [
          ( Printf.sprintf "xmark %d" i,
            Workloads.Xmark.generate ~seed:(1 + i) ~factor:(size 0.0022 0.022 i) (),
            Workloads.Shapes.Xmark_data, "site" );
          ( Printf.sprintf "dblp %d" i,
            Workloads.Dblp.generate ~seed:(1 + i)
              ~entries:(int_of_float (size 200. 2000. i)) (),
            Workloads.Shapes.Dblp_data, "dblp" );
          ( Printf.sprintf "nasa %d" i,
            Workloads.Nasa.generate ~seed:(1 + i)
              ~datasets:(int_of_float (size 25. 250. i)) (),
            Workloads.Shapes.Nasa_data, "datasets" );
        ])
      [ 0; 9 ]
  in
  List.iter
    (fun (name, tree, ds, root) ->
      let guide = Xml.Dataguide.of_doc (Xml.Doc.of_tree tree) in
      let fixed =
        ("MUTATE " ^ root) :: List.map (Workloads.Shapes.guard ds) Workloads.Shapes.kinds
      in
      let n = check_guards name guide fixed in
      Alcotest.(check int) (name ^ ": the fixed guards compile") (List.length fixed) n;
      ignore (check_guards name guide literal_guards);
      let n = check_guards name guide (random_morphs guide ~seed:(Hashtbl.hash name) 40) in
      Alcotest.(check bool) (name ^ ": random MORPHs compile") true (n >= 20))
    docs

(* Adornments no document of the test corpora has: unbounded maxima, and
   bounded ones whose products pass [max_int] and saturate (2^40 * 2^30
   would wrap to 0). *)
let test_cells_extreme_cards () =
  let types = Xml.Type_table.create () in
  let r = Xml.Type_table.intern types ~parent:None "r" in
  let add parent name = Xml.Type_table.intern types ~parent:(Some parent) name in
  let a = add r "a" in
  let b = add a "b" in
  let c = add b "c" in
  let d = add r "d" in
  let e = add d "e" in
  let cards = Array.make (Xml.Type_table.count types) Xmutil.Card.one in
  cards.(a) <- Xmutil.Card.unbounded 0;
  cards.(b) <- Xmutil.Card.v 1 (1 lsl 40);
  cards.(c) <- Xmutil.Card.v 2 (1 lsl 30);
  cards.(d) <- Xmutil.Card.unbounded 1;
  cards.(e) <- Xmutil.Card.v 0 (1 lsl 33);
  let guide =
    Xml.Dataguide.make ~types ~roots:[ r ] ~cards
      ~counts:(Array.make (Xml.Type_table.count types) 1)
  in
  let guards = ("MUTATE r" :: "MUTATE e [ c ]" :: random_morphs guide ~seed:7 300) in
  Alcotest.(check bool) "enough guards compile" true (check_guards "extreme" guide guards >= 50)

let prop_cells_agree_on_random_guards =
  let gen =
    QCheck2.Gen.(
      let* doc = Gen.gen_doc in
      let tt = Xml.Doc.types doc in
      let labels = ref [] in
      Xml.Type_table.iter tt (fun ty ->
          labels := Xml.Type_table.label tt ty :: Xml.Type_table.qname tt ty :: !labels);
      let vocab =
        { Test_guard_prop.label = oneofl !labels; literal = oneofl [ "A"; "hello"; "1984" ];
          order_by = true }
      in
      let* guard = Test_guard_prop.gen_guard_over vocab in
      return (doc, Ast.to_string guard))
  in
  QCheck2.Test.make ~name:"cells = pair loop on random documents and guards" ~count:500
    ~print:(fun (doc, g) -> Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g)
    (* unshrunk: shrinking a document and a guard together runs for
       minutes, and the failing pair prints small enough *)
    (QCheck2.Gen.no_shrink gen)
    (fun (doc, g) ->
      let guide = Xml.Dataguide.of_doc doc in
      match compiled guide g with
      | Some sem -> agrees guide sem
      | None -> true)

(* Deeper documents over four names, so types repeat across levels and
   cards vary, and guards that reshape them: two to eight of the
   document's types, each nested under an earlier one or starting a tree,
   some cloned or wrapped in a NEW node. *)
let gen_shaped_tree =
  QCheck2.Gen.(
    let rec tree depth =
      let* name = oneofl [ "a"; "b"; "c"; "d" ] in
      let* n = if depth = 0 then return 0 else int_range 0 4 in
      let* kids = list_size (return n) (tree (depth - 1)) in
      let* attr = bool in
      let children = if kids = [] then [ Xml.Tree.Text "t" ] else kids in
      let attrs = if attr then [ ("y", "1") ] else [] in
      return (Xml.Tree.Element { name; attrs; children })
    in
    int_range 2 5 >>= tree)

let gen_shaped_doc = QCheck2.Gen.map Xml.Doc.of_tree gen_shaped_tree

let gen_shaped_guard doc =
  QCheck2.Gen.(
    let tt = Xml.Doc.types doc in
    let names = Array.init (Xml.Type_table.count tt) (Xml.Type_table.qname tt) in
    let* k = int_range 2 8 in
    let* label = array_size (return k) (oneofa names) in
    let* parent = flatten_l (List.init k (fun i -> int_range (-1) (i - 1))) in
    let parent = Array.of_list parent in
    let* wrap =
      array_size (return k)
        (frequency [ (6, return `Plain); (1, return `Clone); (1, return `New) ])
    in
    let* stage = oneofl [ "MORPH"; "MUTATE" ] in
    let under i = List.filter (fun j -> parent.(j) = i) (List.init k Fun.id) in
    let rec item i =
      let body =
        match under i with
        | [] -> ""
        | kids -> " [ " ^ String.concat " " (List.map item kids) ^ " ]"
      in
      match wrap.(i) with
      | `Plain -> label.(i) ^ body
      | `Clone -> "(CLONE " ^ label.(i) ^ ")" ^ body
      | `New -> Printf.sprintf "(NEW w%d) [ %s%s ]" i label.(i) body
    in
    return (stage ^ " " ^ String.concat " " (List.map item (under (-1)))))

let prop_cells_agree_on_reshaped_documents =
  QCheck2.Test.make ~name:"cells = pair loop on reshaped random documents" ~count:500
    ~print:(fun (doc, g) -> Xml.Printer.to_string (Xml.Doc.to_tree doc) ^ "\n" ^ g)
    (* unshrunk, as above *)
    QCheck2.Gen.(
      no_shrink
        (let* doc = gen_shaped_doc in
         let* guard = gen_shaped_guard doc in
         return (doc, guard)))
    (fun (doc, g) ->
      let guide = Xml.Dataguide.of_doc doc in
      match compiled guide g with
      | Some sem -> agrees guide sem
      | None -> true)

let test_compile_warnings_once () =
  (* "title" is equally close to two parent types on (a); the warning is
     reported once whether or not the loss check is enforced. *)
  let guide = Xml.Dataguide.of_doc (Xml.Doc.of_string fig_a) in
  let warnings enforce =
    (Interp.compile ~enforce guide "MORPH name [ title ]").Interp.loss.Report.warnings
  in
  Alcotest.(check (list string)) "enforced = unenforced" (warnings true) (warnings false);
  Alcotest.(check int) "one warning" 1 (List.length (warnings false))

let suite =
  [
    Alcotest.test_case "example guard strongly-typed" `Quick test_example_strongly_typed;
    Alcotest.test_case "Fig. 3 guard widening on (c)" `Quick test_widening_guard_on_c;
    Alcotest.test_case "swap with 1..1 strongly-typed" `Quick test_mutate_swap_nonadditive;
    Alcotest.test_case "swap with 0..1 non-inclusive" `Quick
      test_mutate_swap_noninclusive_with_optional;
    Alcotest.test_case "duplicating reshape additive" `Quick
      test_duplicating_reshape_is_additive;
    Alcotest.test_case "omitted types" `Quick test_omitted_types_reported;
    Alcotest.test_case "cast admissibility" `Quick test_admissibility;
    Alcotest.test_case "check/Rejected" `Quick test_check_rejects;
    Alcotest.test_case "interp enforcement" `Quick test_interp_enforcement;
    Alcotest.test_case "predicted cardinalities (Def. 7)" `Quick test_predicted_cards;
    Alcotest.test_case "cross-root path card" `Quick test_target_path_card_cross_roots;
    Alcotest.test_case "identity mutate strong (random docs)" `Quick
      test_identity_mutate_strong_on_random_docs;
    Alcotest.test_case "cells = pair loop: figure guards" `Quick test_cells_figure_guards;
    Alcotest.test_case "cells = pair loop: named cases" `Quick test_cells_named_cases;
    Alcotest.test_case "cells = pair loop: extreme cards" `Quick test_cells_extreme_cards;
    Alcotest.test_case "cells = pair loop: benchmark corpora" `Slow test_cells_corpora;
    QCheck_alcotest.to_alcotest prop_cells_agree_on_random_guards;
    QCheck_alcotest.to_alcotest prop_cells_agree_on_reshaped_documents;
    Alcotest.test_case "compile warnings once" `Quick test_compile_warnings_once;
  ]
