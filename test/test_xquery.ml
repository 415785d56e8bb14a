let doc = Xml.Parser.parse Workloads.Figures.instance_a

let run src = Xquery.Eval.run doc src

let strings src = List.map Xquery.Value.string_value (run src)

let check_strings msg src expected = Alcotest.(check (list string)) msg expected (strings src)

let count src = List.length (run src)

let test_paths () =
  check_strings "absolute path" "/data/book/title" [ "X"; "Y" ];
  Alcotest.(check int) "child wildcard" 2 (count "/data/*");
  check_strings "descendant" "//name" [ "A"; "B"; "W"; "A"; "V" ];
  check_strings "descendant under" "//author//name" [ "A"; "B"; "A" ];
  Alcotest.(check int) "missing path empty" 0 (count "/data/nothing/here")

let test_brittleness () =
  (* The motivating example: the same query against the wrong shape finds
     nothing — silently. *)
  let doc_b = Xml.Parser.parse Workloads.Figures.instance_b in
  Alcotest.(check int) "fails on (b)" 0
    (List.length (Xquery.Eval.run doc_b "/data/author/book/title"));
  let doc_c = Xml.Parser.parse Workloads.Figures.instance_c in
  Alcotest.(check int) "succeeds on (c)" 3
    (List.length (Xquery.Eval.run doc_c "/data/author/book/title"))

let test_attributes () =
  let d = Xml.Parser.parse {|<r><e a="1"/><e a="2"/><e/></r>|} in
  Alcotest.(check (list string)) "attribute step" [ "1"; "2" ]
    (List.map Xquery.Value.string_value (Xquery.Eval.run d "/r/e/@a"))

let test_predicates () =
  check_strings "value predicate" {|/data/book[title = "Y"]/title|} [ "Y" ];
  check_strings "existential predicate" "/data/book[publisher]/title" [ "X"; "Y" ];
  check_strings "position" "/data/book[2]/title" [ "Y" ];
  check_strings "chained predicates" {|/data/book[author][title = "X"]/title|} [ "X" ]

let test_text_step () =
  check_strings "text()" "/data/book/title/text()" [ "X"; "Y" ]

let test_flwor () =
  check_strings "for-return" "for $b in /data/book return $b/title/text()" [ "X"; "Y" ];
  check_strings "let" "let $t := /data/book/title return $t/text()" [ "X"; "Y" ];
  check_strings "where"
    {|for $b in /data/book where $b/title = "X" return $b/publisher/name/text()|}
    [ "W" ];
  check_strings "nested for"
    "for $b in /data/book for $a in $b/author return $a/name/text()"
    [ "A"; "B"; "A" ]

let test_constructors () =
  let r = run "for $b in /data/book return <t>{$b/title/text()}</t>" in
  Alcotest.(check int) "two elements" 2 (List.length r);
  (match List.hd r with
  | Xquery.Value.Node (Xml.Tree.Element { name = "t"; children = [ Xml.Tree.Text "X" ]; _ }) -> ()
  | _ -> Alcotest.fail "expected <t>X</t>");
  let r2 = run {|<out count="{count(//book)}"><inner/></out>|} in
  match r2 with
  | [ Xquery.Value.Node (Xml.Tree.Element { name = "out"; attrs = [ ("count", "2") ]; children = [ Xml.Tree.Element { name = "inner"; _ } ] }) ] ->
      ()
  | _ -> Alcotest.failf "constructor: %s" (Xquery.Value.to_string r2)

let test_functions () =
  check_strings "count" "count(//name)" [ "5" ];
  check_strings "distinct-values" "distinct-values(//name)" [ "A"; "B"; "W"; "V" ];
  check_strings "string" "string(/data/book/title)" [ "X" ];
  check_strings "concat" {|concat("a", "b", "c")|} [ "abc" ];
  check_strings "contains" {|contains("shape", "hap")|} [ "true" ];
  check_strings "starts-with" {|starts-with("shape", "sh")|} [ "true" ];
  check_strings "not/empty" "not(empty(//book))" [ "true" ];
  check_strings "exists" "exists(//publisher)" [ "true" ];
  check_strings "sum" "sum((1, 2, 3))" [ "6" ];
  check_strings "avg" "avg((2, 4))" [ "3" ];
  check_strings "min-max" "(min((3,1,2)), max((3,1,2)))" [ "1"; "3" ];
  check_strings "string-length" {|string-length("hello")|} [ "5" ];
  check_strings "name" "name(/data/book[1])" [ "book" ];
  Alcotest.(check int) "doc()" 2 (count {|for $b in doc("x")/data/book return $b|})

let test_operators () =
  check_strings "arithmetic" "(1 + 2 * 3, 10 - 4, 7 div 2, 7 mod 2)"
    [ "7"; "6"; "3.5"; "1" ];
  check_strings "comparison" "(1 < 2, 2 <= 2, 3 > 4, 1 != 2)"
    [ "true"; "true"; "false"; "true" ];
  check_strings "boolean" "(1 = 1 and 2 = 2, 1 = 2 or 2 = 2)" [ "true"; "true" ];
  check_strings "if" "if (1 = 1) then \"yes\" else \"no\"" [ "yes" ];
  check_strings "negation" "-(3)" [ "-3" ]

let test_general_comparison () =
  (* Sequence = sequence succeeds if any pair matches. *)
  check_strings "seq eq" {|//name = "B"|} [ "true" ];
  check_strings "seq eq false" {|//name = "Z"|} [ "false" ]

let test_quantifiers () =
  check_strings "some" {|some $b in /data/book satisfies $b/title = "Y"|} [ "true" ];
  check_strings "every" {|every $b in /data/book satisfies exists($b/author)|} [ "true" ];
  check_strings "every false" {|every $b in /data/book satisfies $b/title = "X"|}
    [ "false" ]

let test_comments () =
  check_strings "comment ignored" "(: a comment :) count(//book) (: end :)" [ "2" ]

let test_errors () =
  (match run "$unbound" with
  | exception Xquery.Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected unbound variable error");
  (match run "frobnicate(1)" with
  | exception Xquery.Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected unknown function error");
  List.iter
    (fun src ->
      match Xquery.Qparse.parse src with
      | exception Xquery.Qparse.Error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" src)
    [ "for $x in"; "<a>{1}</b>"; "1 +"; "if (1) then 2"; "let $x = 3 return $x" ]

let test_eval_paper_dump_query () =
  (* The Fig. 10 eXist query shape. *)
  let r = run {|for $b in doc("xmark.xml")/data return <data>{$b}</data>|} in
  Alcotest.(check int) "one wrapped doc" 1 (List.length r)

let suite =
  [
    Alcotest.test_case "path expressions" `Quick test_paths;
    Alcotest.test_case "shape brittleness (motivation)" `Quick test_brittleness;
    Alcotest.test_case "attribute steps" `Quick test_attributes;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "text()" `Quick test_text_step;
    Alcotest.test_case "FLWOR" `Quick test_flwor;
    Alcotest.test_case "element constructors" `Quick test_constructors;
    Alcotest.test_case "function library" `Quick test_functions;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "general comparison" `Quick test_general_comparison;
    Alcotest.test_case "quantifiers" `Quick test_quantifiers;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "paper dump query" `Quick test_eval_paper_dump_query;
  ]

(* --- extended language features --- *)

let test_order_by () =
  check_strings "order by name" "for $n in //name order by $n return $n/text()"
    [ "A"; "A"; "B"; "V"; "W" ];
  check_strings "order by descending"
    "for $n in //author/name order by $n descending return $n/text()"
    [ "B"; "A"; "A" ];
  check_strings "numeric order"
    "for $x in (3, 10, 2) order by $x return $x" [ "2"; "3"; "10" ];
  check_strings "two keys"
    {|for $b in /data/book for $a in $b/author
      order by $a/name, $b/title descending
      return concat($a/name, "-", $b/title)|}
    [ "A-Y"; "A-X"; "B-X" ]

let test_position_last () =
  check_strings "position predicate" "//name[position() = 2]" [ "B" ];
  check_strings "last" "//name[last()]" [ "V" ];
  check_strings "position in filter" "/data/book/author[position() < 2]/name/text()"
    [ "A"; "A" ]

let test_string_functions () =
  check_strings "substring" {|substring("as you shape it", 4, 3)|} [ "you" ];
  check_strings "substring to end" {|substring("guard", 2)|} [ "uard" ];
  check_strings "string-join" {|string-join(//author/name, "+")|} [ "A+B+A" ];
  check_strings "normalize-space" {|normalize-space("  a   b  ")|} [ "a b" ];
  check_strings "upper" {|upper-case("xMorph")|} [ "XMORPH" ];
  check_strings "lower" {|lower-case("xMorph")|} [ "xmorph" ]

let test_numeric_functions () =
  check_strings "floor/ceiling/round/abs"
    "(floor(2.7), ceiling(2.1), round(2.5), abs(-3))" [ "2"; "3"; "3"; "3" ];
  check_strings "boolean()" {|(boolean(//name), boolean(""), true(), false())|}
    [ "true"; "false"; "true"; "false" ]

let extended_suite =
  [
    Alcotest.test_case "order by" `Quick test_order_by;
    Alcotest.test_case "position()/last()" `Quick test_position_last;
    Alcotest.test_case "string functions" `Quick test_string_functions;
    Alcotest.test_case "numeric functions" `Quick test_numeric_functions;
  ]

let suite = suite @ extended_suite

(* Qast pretty-printing round-trips through the parser with the same
   observable results. *)
let test_qast_pp_roundtrip () =
  List.iter
    (fun src ->
      let ast = Xquery.Qparse.parse src in
      let printed = Format.asprintf "%a" Xquery.Qast.pp ast in
      let v1 = Xquery.Value.to_string (Xquery.Eval.eval doc ast) in
      let v2 =
        match Xquery.Qparse.parse printed with
        | reparsed -> Xquery.Value.to_string (Xquery.Eval.eval doc reparsed)
        | exception e ->
            Alcotest.failf "re-parse of %S failed: %s" printed (Printexc.to_string e)
      in
      Alcotest.(check string) src v1 v2)
    [
      "for $b in /data/book order by $b/title descending return $b/title/text()";
      "count(//name[position() < 3])";
      {|if (exists(//publisher)) then "y" else "n"|};
      "some $b in //book satisfies $b/title = \"X\"";
      "<out note=\"{count(//book)}\">{//author/name}</out>";
      "(1 + 2 * 3) div 2";
    ]

let suite =
  suite @ [ Alcotest.test_case "Qast pp roundtrip" `Quick test_qast_pp_roundtrip ]

(* --- positional bounds --- *)

let numbered = Xml.Parser.parse "<r><a>1</a><a>2</a><a>3</a></r>"

(* A numeric predicate keeps the item whose position equals it exactly,
   whether the bound recognizes it ([2.5]) or it is evaluated per item
   ([. + 0.5]). *)
let test_numeric_predicate () =
  let check msg src expected =
    Alcotest.(check (list string)) msg expected
      (List.map Xquery.Value.string_value (Xquery.Eval.run numbered src))
  in
  check "[2]" "/r/a[2]" [ "2" ];
  check "[2.5]" "/r/a[2.5]" [];
  check "[1.9]" "/r/a[1.9]" [];
  check "[position() = 2.5]" "/r/a[position() = 2.5]" [];
  check "[. + 0.5]" "/r/a[. + 0.5]" [];
  check "[. * 1]" "/r/a[. * 1]" [ "1"; "2"; "3" ];
  check "[position() < 2.5]" "/r/a[position() < 2.5]" [ "1"; "2" ];
  check "[2.5 >= position()]" "/r/a[2.5 >= position()]" [ "1"; "2" ];
  check "[$k]" "let $k := 3 return /r/a[$k]" [ "3" ];
  check "[$k] bound to text" "let $k := \"x\" return /r/a[$k]" [ "1"; "2"; "3" ];
  check "[position() <= 2][2]" "/r/a[position() <= 2][2]" [ "2" ];
  check "[position() <= 2][last()]" "/r/a[position() <= 2][last()]" [ "2" ]

(* Each bound form with operand [k], paired with a predicate the bound does
   not recognize and that keeps the same positions, so the evaluator runs
   it item by item. *)
let bound_forms k =
  let f = Printf.sprintf in
  [ (f "[%s]" k, f "[%s + 0 * last()]" k);
    (f "[position() <= %s]" k, f "[position() <= %s and true()]" k);
    (f "[position() < %s]" k, f "[position() < %s and true()]" k);
    (f "[position() = %s]" k, f "[position() = %s and true()]" k);
    (f "[%s >= position()]" k, f "[%s >= position() and true()]" k);
    (f "[%s > position()]" k, f "[%s > position() and true()]" k);
    (f "[%s = position()]" k, f "[%s = position() and true()]" k);
    (f "[%s][*]" k, f "[%s + 0 * last()][*]" k);
    (f "[position() <= %s][last()]" k, f "[position() <= %s and true()][last()]" k) ]

(* The bounds the oracle properties draw, around [n], the most children
   one node has. *)
let bound_values n =
  [ "-1"; "0"; "0.5"; "1"; "1.5"; "2"; string_of_int (n - 1); string_of_int n;
    string_of_int (n + 1); "1000000" ]

(* The operand is the number itself, a variable bound to it, or
   arithmetic over the variable. *)
let bound_operands = [ "literal"; "$k"; "($k * 2 - $k)" ]

(* Every (query, oracle) pair for one bound value over the given paths. *)
let bound_queries ~paths ~operand value =
  let k = if operand = "literal" then value else operand in
  List.concat_map
    (fun path ->
      List.map
        (fun (bounded, oracle) ->
          let wrap p = Printf.sprintf "let $k := %s return %s%s" value path p in
          (wrap bounded, wrap oracle))
        (bound_forms k))
    paths

(* Compares each pair with [run]; counts the pairs and the non-empty
   answers. *)
let check_bound_pairs ~run ~pairs ~nonempty queries =
  List.iter
    (fun (q, oracle) ->
      let a = Xquery.Value.to_string (run q) and b = Xquery.Value.to_string (run oracle) in
      incr pairs;
      if a <> "" then incr nonempty;
      if a <> b then QCheck2.Test.fail_reportf "%s\n  bounded: %s\n  oracle:  %s" q a b)
    queries

(* Trees wider than [Gen.gen_tree]'s, so bounds near [n] cut real runs. *)
let rec gen_wide depth =
  QCheck2.Gen.(
    let* name = oneofl [ "a"; "b" ] in
    let* n = if depth = 0 then return 0 else int_range 0 7 in
    let* children =
      list_size (return n)
        (oneof [ gen_wide (depth - 1); map (fun s -> Xml.Tree.Text s) (oneofl [ "x"; "2" ]) ])
    in
    return (Xml.Tree.Element { name; attrs = []; children }))

let rec most_children = function
  | Xml.Tree.Element { children; _ } ->
      List.fold_left (fun m c -> max m (most_children c)) (List.length children) children
  | Xml.Tree.Text _ -> 0

let test_bound_oracle () =
  let pairs = ref 0 and nonempty = ref 0 in
  let gen =
    QCheck2.Gen.(
      let* tree = int_range 1 3 >>= gen_wide in
      let* value = oneofl (bound_values (most_children tree)) in
      let* operand = oneofl bound_operands in
      return (tree, value, operand))
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"bounded step = per-item predicate (trees)" ~count:300
       ~print:(fun (t, v, o) -> Xml.Printer.to_string t ^ "\nbound " ^ v ^ " as " ^ o)
       (* unshrunk: the failing query is reported, and the tree prints small *)
       (QCheck2.Gen.no_shrink gen)
       (fun (tree, value, operand) ->
         check_bound_pairs ~run:(Xquery.Eval.run tree) ~pairs ~nonempty
           (bound_queries ~paths:[ "//*/*"; "//*/a"; "//*/text()"; "/*" ] ~operand value);
         true));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d bounded answers non-empty" !nonempty !pairs)
    true (!nonempty > 0)

(* A navigation over Xml.Tree that counts the [a] children it hands out. *)
let pulled = ref 0

module Counting = struct
  type t = Xml.Tree.t
  type node = Xml.Tree.t

  let document doc = doc

  let children _ ~test:_ = function
    | Xml.Tree.Element { children; _ } ->
        Seq.map
          (fun c ->
            if Xml.Tree.name c = "a" then incr pulled;
            c)
          (List.to_seq children)
    | Xml.Tree.Text _ -> Seq.empty

  let text _ = function Xml.Tree.Text s -> Some s | Xml.Tree.Element _ -> None
  let name _ n = Xml.Tree.name n
  let attributes _ = function
    | Xml.Tree.Element { attrs; _ } -> attrs
    | Xml.Tree.Text _ -> []
  let string_value _ n = Xml.Tree.deep_text n
  let of_tree n = n
  let materialize _ n = n
end

module Counting_eval = Xquery.Eval.Make (Counting)

let test_bound_laziness () =
  let wide =
    Xml.Tree.element "r"
      (List.init 10_000 (fun i -> Xml.Tree.element "a" [ Xml.Tree.Text (string_of_int (i + 1)) ]))
  in
  let doc = Xml.Tree.element "" [ wide ] in
  let check src ~at_most expected =
    pulled := 0;
    let r = Counting_eval.eval doc (Xquery.Qparse.parse src) in
    Alcotest.(check (list string)) src expected
      (List.map Xquery.Value.string_value (Counting_eval.materialize doc r));
    Alcotest.(check bool)
      (Printf.sprintf "%s pulls %d a nodes (at most %d)" src !pulled at_most)
      true (!pulled <= at_most)
  in
  check "/r/a[position() <= 3]" ~at_most:3 [ "1"; "2"; "3" ];
  check "/r/a[2]" ~at_most:2 [ "2" ];
  (* The unbounded step pulls them all. *)
  pulled := 0;
  ignore (Counting_eval.eval doc (Xquery.Qparse.parse "count(/r/a)"));
  Alcotest.(check int) "count(/r/a) pulls every a" 10_000 !pulled

let suite =
  suite
  @ [ Alcotest.test_case "numeric predicates are exact" `Quick test_numeric_predicate;
      Alcotest.test_case "bounded step = per-item predicate (trees)" `Quick test_bound_oracle;
      Alcotest.test_case "bounded step pulls only its run" `Quick test_bound_laziness ]

(* XPath 1.0 numbers at their edges: the substring() examples of §4.2,
   round() halves toward positive infinity, NaN and the infinities
   spelled as xs:double spells them whatever their sign bit, and the
   in-place string matches. *)
let test_xpath_number_edges () =
  List.iter
    (fun (src, expected) -> check_strings src src [ expected ])
    [ ({|substring("12345", 2, 3)|}, "234");
      ({|substring("12345", 2)|}, "2345");
      ({|substring("12345", 1.5, 2.6)|}, "234");
      ({|substring("12345", 0, 3)|}, "12");
      ({|substring("12345", 0 div 0, 3)|}, "");
      ({|substring("12345", 1, 0 div 0)|}, "");
      ({|substring("12345", -42, 1 div 0)|}, "12345");
      ({|substring("12345", -1 div 0, 1 div 0)|}, "");
      ({|substring("abcdef", 1 div 0)|}, "");
      ({|substring("abcdef", -1 div 0)|}, "abcdef");
      ({|substring("abcdef", 7)|}, "");
      ("round(-1.5)", "-1");
      ("round(-2.5)", "-2");
      ("round(2.5)", "3");
      ("round(-2.7)", "-3");
      ("round(0.49999999999999994)", "0");
      ("round(0 div 0)", "NaN");
      ("round(1 div 0)", "INF");
      ("string(0 div 0)", "NaN");
      ({|string(number("x"))|}, "NaN");
      (* number() reads XPath 1.0 Number only: no OCaml float syntax. *)
      ({|string(number("inf"))|}, "NaN");
      ({|string(number("0x10"))|}, "NaN");
      ({|string(number("1_000"))|}, "NaN");
      ({|string(number("1e3"))|}, "NaN");
      ({|"0x10" = 16|}, "false");
      ({|"1e3" = 1000|}, "false");
      ({|string(number(" -1.5 "))|}, "-1.5");
      ({|string(number("1."))|}, "1");
      ({|string(number(".5"))|}, "0.5");
      ({|string(number("-.5"))|}, "-0.5");
      ({|string(number("."))|}, "NaN");
      ({|string(number("-"))|}, "NaN");
      ({|string(number("- 1"))|}, "NaN");
      ({|string(number(""))|}, "NaN");
      ("string(1 div 0)", "INF");
      ("string(-1 div 0)", "-INF");
      ({|contains("aab", "ab")|}, "true");
      ({|contains("abc", "")|}, "true");
      ({|contains("abc", "abcd")|}, "false");
      ({|contains("abc", "c")|}, "true");
      ({|starts-with("abc", "ab")|}, "true");
      ({|starts-with("ab", "abc")|}, "false");
      ({|starts-with("abc", "b")|}, "false") ]

let suite =
  suite @ [ Alcotest.test_case "XPath number edges" `Quick test_xpath_number_edges ]
