let tree = Alcotest.testable (fun fmt t -> Xml.Printer.pp fmt t) Xml.Tree.equal

let parse = Xml.Parser.parse

let test_minimal () =
  Alcotest.check tree "self-closing" (Xml.Tree.element "a" []) (parse "<a/>");
  Alcotest.check tree "open-close" (Xml.Tree.element "a" []) (parse "<a></a>");
  Alcotest.check tree "text child"
    (Xml.Tree.element "a" [ Xml.Tree.text "hi" ])
    (parse "<a>hi</a>")

let test_attributes () =
  Alcotest.check tree "attrs"
    (Xml.Tree.element ~attrs:[ ("x", "1"); ("y", "two") ] "a" [])
    (parse {|<a x="1" y='two'/>|});
  Alcotest.check tree "attr entity"
    (Xml.Tree.element ~attrs:[ ("x", "a<b&c") ] "a" [])
    (parse {|<a x="a&lt;b&amp;c"/>|})

let test_nesting () =
  Alcotest.check tree "nested"
    (Xml.Tree.element "a"
       [ Xml.Tree.element "b" [ Xml.Tree.text "t" ]; Xml.Tree.element "c" [] ])
    (parse "<a><b>t</b><c/></a>")

let test_entities () =
  Alcotest.check tree "predefined"
    (Xml.Tree.element "a" [ Xml.Tree.text "<&>'\"" ])
    (parse "<a>&lt;&amp;&gt;&apos;&quot;</a>");
  Alcotest.check tree "decimal charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "A" ])
    (parse "<a>&#65;</a>");
  Alcotest.check tree "hex charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "A" ])
    (parse "<a>&#x41;</a>");
  (* U+00E9 as UTF-8. *)
  Alcotest.check tree "utf8 charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "\xc3\xa9" ])
    (parse "<a>&#xE9;</a>")

let test_cdata () =
  Alcotest.check tree "cdata"
    (Xml.Tree.element "a" [ Xml.Tree.text "<raw>&stuff;" ])
    (parse "<a><![CDATA[<raw>&stuff;]]></a>")

let test_comments_pis () =
  Alcotest.check tree "comment skipped"
    (Xml.Tree.element "a" [ Xml.Tree.element "b" [] ])
    (parse "<a><!-- no --><b/><!-- way --></a>");
  Alcotest.check tree "pi skipped"
    (Xml.Tree.element "a" [])
    (parse "<?xml version=\"1.0\"?><?style here?><a/>")

let test_doctype () =
  Alcotest.check tree "doctype skipped"
    (Xml.Tree.element "a" [])
    (parse "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>");
  Alcotest.check tree "internal subset"
    (Xml.Tree.element "a" [])
    (parse "<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>")

let test_whitespace () =
  (* Inter-element whitespace dropped, meaningful text kept. *)
  Alcotest.check tree "pretty input"
    (Xml.Tree.element "a" [ Xml.Tree.element "b" [ Xml.Tree.text "x" ] ])
    (parse "<a>\n  <b>x</b>\n</a>");
  match parse "<a>  x  </a>" with
  | Xml.Tree.Element { children = [ Xml.Tree.Text t ]; _ } ->
      Alcotest.(check string) "kept with padding" "  x  " t
  | _ -> Alcotest.fail "expected one text child"

let check_error src =
  match parse src with
  | exception Xml.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_errors () =
  List.iter check_error
    [
      "";
      "<a>";
      "<a></b>";
      "<a><b></a></b>";
      "<a x=1/>";
      "<a x=\"1\" x=\"2\"/>";
      "<a>&unknown;</a>";
      "<a>&#xZZ;</a>";
      "<a/><b/>";
      "junk<a/>";
      "<a><![CDATA[open</a>";
      "<a attr=\"unterminated/>";
    ]

let test_error_position () =
  let check src (line, col, msg) =
    match parse src with
    | exception Xml.Parser.Error e ->
        Alcotest.(check (triple int int string))
          (Printf.sprintf "position of %S" src) (line, col, msg) (e.line, e.col, e.msg)
    | _ -> Alcotest.failf "expected a parse error for %S" src
  in
  check "<a>\n<b></c>\n</a>" (2, 7, "mismatched close tag </c> for <b>");
  check {|<a x="1" x="2"/>|} (1, 15, "duplicate attribute x");
  check "<a>\n  &bad;</a>" (2, 8, "unknown entity &bad;");
  (* At end of input the position is one past the last character. *)
  check "<a>\n" (2, 1, "unterminated element <a>");
  check "<a>x" (1, 5, "unterminated element <a>");
  check "<a><!-- x" (1, 10, "unterminated comment");
  check "" (1, 1, "expected root element")

(* The merging and blank-dropping policy, pinned exactly: text accumulates
   across comments, PIs, CDATA sections and references, and is flushed only
   at a child element or a close tag; a flushed run that is whitespace only
   is dropped, any other run keeps its padding. *)
let test_text_runs_exact () =
  let check name expected src =
    if parse src <> expected then Alcotest.failf "%s: unexpected tree for %S" name src
  in
  let el = Xml.Tree.element and tx = Xml.Tree.text in
  check "comment merges" (el "a" [ tx "ab" ]) "<a>a<!--c-->b</a>";
  check "pi merges" (el "a" [ tx "ab" ]) "<a>a<?p x?>b</a>";
  check "cdata merges" (el "a" [ tx "a<b>c" ]) "<a>a<![CDATA[<b>]]>c</a>";
  check "references merge" (el "a" [ tx "x&y A" ]) "<a>x&amp;y&#32;&#x41;</a>";
  check "split by a child" (el "a" [ tx "x"; el "b" []; tx "y" ]) "<a>x<b/>y</a>";
  check "blank runs dropped" (el "a" [ el "b" [] ]) "<a> \n<!-- c -->\t<b/>\r\n</a>";
  check "blank cdata dropped" (el "a" []) "<a><![CDATA[  ]]></a>";
  check "blank reference dropped" (el "a" []) "<a>&#32;&#x9;</a>";
  check "padding kept around cdata" (el "a" [ tx " \n<x> " ]) "<a> \n<![CDATA[<x>]]> </a>";
  check "empty cdata" (el "a" [ tx "ab" ]) "<a>a<![CDATA[]]>b</a>";
  check "attribute whitespace kept" (el ~attrs:[ ("x", " a\n&\t") ] "a" [])
    "<a x=' a\n&amp;\t'/>"

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Xml.Printer.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "a&quot;b&amp;" (Xml.Printer.escape_attr "a\"b&")

let test_serialized_size () =
  let t = parse {|<a x="1"><b>hi &amp; low</b><c/></a>|} in
  Alcotest.(check int) "size matches"
    (String.length (Xml.Printer.to_string t))
    (Xml.Printer.serialized_size t)

let test_tree_helpers () =
  let t = parse "<a>one<b>two</b>three</a>" in
  Alcotest.(check string) "text_content" "onethree" (Xml.Tree.text_content t);
  Alcotest.(check string) "deep_text" "onetwothree" (Xml.Tree.deep_text t);
  Alcotest.(check int) "count_elements" 2 (Xml.Tree.count_elements t);
  let ta = parse {|<a x="1" y="2"><b/></a>|} in
  Alcotest.(check int) "count_nodes includes attrs" 4 (Xml.Tree.count_nodes ta)

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 Gen.gen_tree
    (fun t -> Xml.Tree.equal t (parse (Xml.Printer.to_string t)))

let prop_roundtrip_indented =
  QCheck2.Test.make ~name:"indented print/parse roundtrip (element content)"
    ~count:300
    (* Indented output only re-parses to an equal tree when no mixed
       content; restrict to trees whose text is only in leaves. *)
    (QCheck2.Gen.map
       (fun t ->
         let rec strip (t : Xml.Tree.t) : Xml.Tree.t =
           match t with
           | Xml.Tree.Text _ -> t
           | Xml.Tree.Element e ->
               let elems =
                 List.filter
                   (function Xml.Tree.Element _ -> true | _ -> false)
                   e.children
               in
               if elems = [] then t
               else Xml.Tree.Element { e with children = List.map strip elems }
         in
         strip t)
       Gen.gen_tree)
    (fun t -> Xml.Tree.equal t (parse (Xml.Printer.to_string_indented t)))

(* Exact-structure parsing: the generator builds source text together with
   the tree the parser must return for it, splicing comments, PIs, CDATA
   sections, references and whitespace-only runs into text.  Compared with
   structural [=], unlike the round trips above, so split or merged text
   runs and changed padding are caught. *)
let text_pieces =
  [ ("x", "x"); ("hello", "hello"); (" a b ", " a b "); ("\xc3\xa9", "\xc3\xa9");
    (" ", " "); ("\n  ", "\n  "); ("\t", "\t"); ("\r\n", "\r\n");
    ("<!---->", ""); ("<!-- c -->", ""); ("<?p?>", ""); ("<?pi data?>", "");
    ("<![CDATA[]]>", ""); ("<![CDATA[<&>]]>", "<&>"); ("<![CDATA[ ]]>", " ");
    ("<![CDATA[]]]]>", "]]"); ("&amp;", "&"); ("&lt;", "<"); ("&#65;", "A");
    ("&#x20;", " "); ("&#xE9;", "\xc3\xa9"); ("&quot;", "\"") ]

let attr_pieces =
  [ ("v", "v"); (" ", " "); ("1 2", "1 2"); ("\n", "\n"); ("&amp;", "&");
    ("&lt;", "<"); ("&#65;", "A"); ("&quot;", "\""); ("&apos;", "'") ]

(* A run of pieces: (source, decoded). *)
let gen_run pieces =
  QCheck2.Gen.(
    map
      (fun ps -> (String.concat "" (List.map fst ps), String.concat "" (List.map snd ps)))
      (list_size (int_range 0 4) (oneofl pieces)))

let is_blank = String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false)

let gen_exact : (string * Xml.Tree.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let attr (name, quote) =
    let+ src, v = gen_run attr_pieces in
    (Printf.sprintf " %s=%c%s%c" name quote src quote, (name, v))
  in
  let element =
    fix (fun self depth ->
        let* name = oneofl [ "a"; "b"; "c-d"; "e.f"; "g:h"; "_i" ] in
        let* names = oneofl [ []; [ "x" ]; [ "x"; "y" ]; [ "y"; "z"; "x" ] ] in
        let* quote = oneofl [ '"'; '\'' ] in
        let* attrs = flatten_l (List.map (fun n -> attr (n, quote)) names) in
        let* k = if depth = 0 then return 0 else int_range 0 3 in
        let* kids = list_repeat k (self (depth - 1)) in
        let* runs = list_repeat (k + 1) (gen_run text_pieces) in
        let+ self_close = bool in
        let open_tag = "<" ^ name ^ String.concat "" (List.map fst attrs) in
        let text (_, v) = if is_blank v then [] else [ Xml.Tree.Text v ] in
        let children =
          text (List.hd runs)
          @ List.concat (List.map2 (fun (_, kid) run -> kid :: text run) kids (List.tl runs))
        in
        let src =
          if self_close && k = 0 && fst (List.hd runs) = "" then open_tag ^ "/>"
          else
            open_tag ^ ">" ^ fst (List.hd runs)
            ^ String.concat "" (List.map2 (fun (s, _) (r, _) -> s ^ r) kids (List.tl runs))
            ^ "</" ^ name ^ ">"
        in
        (src, Xml.Tree.Element { name; attrs = List.map snd attrs; children }))
  in
  let* prolog = oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!-- p -->"; " <!DOCTYPE a>" ] in
  let* trail = oneofl [ ""; "\n"; "<!-- t --> "; "<?t?>" ] in
  let+ src, tree = int_range 0 3 >>= element in
  (prolog ^ src ^ trail, tree)

let prop_exact_structure =
  QCheck2.Test.make ~name:"parse builds the exact tree (comments, CDATA, refs)"
    ~count:500 ~print:fst gen_exact (fun (src, expected) -> parse src = expected)

let prop_size =
  QCheck2.Test.make ~name:"serialized_size = length of to_string" ~count:300
    Gen.gen_tree (fun t ->
      Xml.Printer.serialized_size t = String.length (Xml.Printer.to_string t))

let suite =
  [
    Alcotest.test_case "minimal documents" `Quick test_minimal;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "CDATA" `Quick test_cdata;
    Alcotest.test_case "comments and PIs" `Quick test_comments_pis;
    Alcotest.test_case "DOCTYPE" `Quick test_doctype;
    Alcotest.test_case "whitespace policy" `Quick test_whitespace;
    Alcotest.test_case "malformed inputs rejected" `Quick test_errors;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "text runs, exactly" `Quick test_text_runs_exact;
    Alcotest.test_case "escaping" `Quick test_escape;
    Alcotest.test_case "serialized_size" `Quick test_serialized_size;
    Alcotest.test_case "tree helpers" `Quick test_tree_helpers;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_indented;
    QCheck_alcotest.to_alcotest prop_size;
    QCheck_alcotest.to_alcotest prop_exact_structure;
  ]

(* Robustness fuzzing: mutated documents never crash the parser with
   anything but Parser.Error. *)
let prop_parser_total_on_mutations =
  QCheck2.Test.make ~name:"parser total on mutated input" ~count:500
    QCheck2.Gen.(triple Gen.gen_tree (int_range 0 200) (int_range 0 255))
    (fun (t, pos, byte) ->
      let s = Xml.Printer.to_string t in
      let s =
        if String.length s = 0 then s
        else begin
          let b = Bytes.of_string s in
          Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
          Bytes.to_string b
        end
      in
      match Xml.Parser.parse s with
      | _ -> true
      | exception Xml.Parser.Error _ -> true
      | exception _ -> false)

let prop_parser_total_on_garbage =
  QCheck2.Test.make ~name:"parser total on garbage" ~count:500
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      match Xml.Parser.parse s with
      | _ -> true
      | exception Xml.Parser.Error _ -> true
      | exception _ -> false)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parser_total_on_mutations;
      QCheck_alcotest.to_alcotest prop_parser_total_on_garbage;
    ]

(* Escaping by runs against a character-by-character reference. *)
let reference_escape ~attr s =
  String.concat ""
    (List.map
       (function
         | '&' -> "&amp;"
         | '<' -> "&lt;"
         | '>' -> "&gt;"
         | '"' when attr -> "&quot;"
         | c -> String.make 1 c)
       (List.of_seq (String.to_seq s)))

let escape_cases =
  [ ""; "plain"; "&x"; "x&"; "&&"; "<x"; "x<"; "<<"; ">x"; "x>"; ">>"; "\"x"; "x\"";
    "\"\""; "&<>\""; "a&b<c>d\"e"; "\"<&>\"" ]

let test_escape_by_runs () =
  List.iter
    (fun s ->
      List.iter
        (fun attr ->
          let want = reference_escape ~attr s in
          let escape = if attr then Xml.Printer.escape_attr else Xml.Printer.escape_text in
          Alcotest.(check string) (Printf.sprintf "%S" s) want (escape s);
          (* A slice escapes as its copy does. *)
          let add =
            if attr then Xml.Printer.add_escaped_attr else Xml.Printer.add_escaped_text
          in
          let b = Buffer.create 16 in
          add b ("<" ^ s ^ "&") 1 (String.length s);
          Alcotest.(check string) (Printf.sprintf "slice of %S" s) want (Buffer.contents b);
          let tree =
            Xml.Tree.Element { name = "e"; attrs = [ ("k", s) ]; children = [ Text s ] }
          in
          Alcotest.(check int) (Printf.sprintf "size of %S" s)
            (String.length (Xml.Printer.to_string tree))
            (Xml.Printer.serialized_size tree))
        [ false; true ])
    escape_cases;
  Alcotest.check_raises "a slice past the end" (Invalid_argument "Xml.Printer: bad slice")
    (fun () -> Xml.Printer.add_escaped_text (Buffer.create 4) "ab" 1 2)

(* The writer's bytes for a sequence of calls, empty text and childless
   elements included: those [to_buffer] writes for the tree the calls
   describe. *)
let test_writer_matches_builder () =
  let module W = Xml.Printer.Writer in
  let src = "<v&\">" in
  let buf = Buffer.create 64 in
  let w = W.create buf in
  W.open_element w "r";
  W.attribute w "k" src 1 3;
  W.open_element w "empty";
  W.close_element w "empty";
  W.open_element w "t";
  W.text w src 0 0;
  W.close_element w "t";
  W.text w src 0 (String.length src);
  W.open_element w "a";
  W.attribute w "x" src 0 1;
  W.close_element w "a";
  W.close_element w "r";
  Alcotest.(check string) "same bytes"
    "<r k=\"v&amp;&quot;\"><empty/><t></t>&lt;v&amp;\"&gt;<a x=\"&lt;\"/></r>"
    (Buffer.contents buf);
  Alcotest.(check int) "elements and attributes" 6 (W.elements w)

let suite =
  suite
  @ [
      Alcotest.test_case "escaping by runs" `Quick test_escape_by_runs;
      Alcotest.test_case "writer = builder + printer" `Quick test_writer_matches_builder;
    ]

(* The recursive printers that preceded the writer's replay, kept verbatim
   as the reference the replay must reproduce byte for byte. *)
module Reference = struct
  open Xml.Printer

  let add_attrs b attrs =
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        add_escaped_attr b v 0 (String.length v);
        Buffer.add_char b '"')
      attrs

  let rec to_buffer b t =
    match t with
    | Xml.Tree.Text s -> add_escaped_text b s 0 (String.length s)
    | Xml.Tree.Element { name; attrs; children } ->
        Buffer.add_char b '<';
        Buffer.add_string b name;
        add_attrs b attrs;
        if children = [] then Buffer.add_string b "/>"
        else begin
          Buffer.add_char b '>';
          List.iter (to_buffer b) children;
          Buffer.add_string b "</";
          Buffer.add_string b name;
          Buffer.add_char b '>'
        end

  let only_text children =
    List.for_all (function Xml.Tree.Text _ -> true | Xml.Tree.Element _ -> false) children

  let to_string_indented t =
    let b = Buffer.create 1024 in
    let rec go indent t =
      match t with
      | Xml.Tree.Text s ->
          Buffer.add_string b indent;
          add_escaped_text b s 0 (String.length s);
          Buffer.add_char b '\n'
      | Xml.Tree.Element { name; attrs; children } ->
          Buffer.add_string b indent;
          Buffer.add_char b '<';
          Buffer.add_string b name;
          add_attrs b attrs;
          if children = [] then Buffer.add_string b "/>\n"
          else if only_text children then begin
            Buffer.add_char b '>';
            List.iter
              (function Xml.Tree.Text s -> add_escaped_text b s 0 (String.length s) | _ -> ())
              children;
            Buffer.add_string b "</";
            Buffer.add_string b name;
            Buffer.add_string b ">\n"
          end
          else begin
            Buffer.add_string b ">\n";
            List.iter (go (indent ^ "  ")) children;
            Buffer.add_string b indent;
            Buffer.add_string b "</";
            Buffer.add_string b name;
            Buffer.add_string b ">\n"
          end
    in
    go "" t;
    Buffer.contents b

  let to_string t =
    let b = Buffer.create 1024 in
    to_buffer b t;
    Buffer.contents b
end

(* Trees the printers treat differently: mixed content, adjacent and
   empty texts, attribute values with every escaped character, and
   chains deep enough that indentation runs past a few levels. *)
let gen_printer_tree =
  let open QCheck2.Gen in
  let text = oneofl [ ""; "t"; " "; "a & b"; "<x>"; "\"q\""; "line\nbreak"; "&<>\"" ] in
  let attrs =
    let* n = int_range 0 2 in
    let+ vs = list_repeat n (oneofl [ ""; "v"; "&"; "<"; ">"; "\""; "a&b<c>d\"e" ]) in
    List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) vs
  in
  let element =
    fix (fun self depth ->
        let* name = oneofl [ "a"; "b"; "n-s" ] in
        let* attrs = attrs in
        let* chain = if depth > 0 then bool else return false in
        let+ children =
          if depth = 0 then list_size (int_range 0 3) (map Xml.Tree.text text)
          else if chain then
            (* one element child between optional texts: nesting depth *)
            let* before = opt (map Xml.Tree.text text) in
            let* kid = self (depth - 1) in
            let+ after = opt (map Xml.Tree.text text) in
            Option.to_list before @ (kid :: Option.to_list after)
          else
            list_size (int_range 0 4)
              (oneof [ self (depth - 1); map Xml.Tree.text text ])
        in
        Xml.Tree.Element { name; attrs; children })
  in
  oneof [ int_range 0 12 >>= element; map Xml.Tree.text text ]

let prop_writer_replay_matches_reference =
  QCheck2.Test.make ~name:"writer replay = recursive printers (compact, indented)"
    ~count:500 ~print:Reference.to_string gen_printer_tree (fun t ->
      Xml.Printer.to_string t = Reference.to_string t
      && Xml.Printer.to_string_indented t = Reference.to_string_indented t
      &&
      let b = Buffer.create 16 in
      Buffer.add_string b "prefix";
      Xml.Printer.to_buffer b t;
      Buffer.contents b = "prefix" ^ Reference.to_string t)

let test_indented_cases () =
  let e ?(attrs = []) name children = Xml.Tree.Element { name; attrs; children } in
  let t s = Xml.Tree.Text s in
  List.iter
    (fun (label, tree, want) ->
      Alcotest.(check string) label want (Xml.Printer.to_string_indented tree);
      Alcotest.(check string) (label ^ " (reference)") want (Reference.to_string_indented tree))
    [
      ("empty element", e "a" [], "<a/>\n");
      ("text only", e "a" [ t "x"; t "y" ], "<a>xy</a>\n");
      ("empty text", e "a" [ t "" ], "<a></a>\n");
      ( "mixed content",
        e "a" [ t "x"; e "b" [ t "y" ]; t ""; e ~attrs:[ ("k", "&\"") ] "c" [] ],
        "<a>\n  x\n  <b>y</b>\n  \n  <c k=\"&amp;&quot;\"/>\n</a>\n" );
      ("top-level text", t "a<b", "a&lt;b\n");
    ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_writer_replay_matches_reference;
      Alcotest.test_case "indented writer cases" `Quick test_indented_cases;
    ]
