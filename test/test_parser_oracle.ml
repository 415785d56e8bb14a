(* [Xml.Parser] against the parser it replaced ([Parser_oracle]): on every
   input both return structurally equal trees ([=], so split or merged
   text runs are caught), or both raise [Error] at the same line and
   column with the same message.  Inputs are generated documents that
   splice references, CDATA sections, comments, PIs and whitespace-only
   runs into text, in deep chains, wide elements and bushy trees, and
   copies of them with one byte deleted, duplicated or replaced by a
   markup character. *)

let names = [ "a"; "b"; "a"; "item"; "c-d"; "e.f"; "g:h"; "_i"; "\xc3\xa9l" ]

(* Per level, the least and the most children an element there has. *)
let shapes =
  [ List.init 60 (fun _ -> (1, 1));
    [ (0, 200); (0, 2) ];
    [ (0, 3); (0, 3); (0, 3); (0, 3) ] ]

(* Text the pieces of [Test_xml] do not make: references out of range,
   empty, unterminated or unknown, and stray markup. *)
let bad_pieces =
  [ "&#1114112;"; "&#x110000;"; "&#99999999999999999999;"; "&#;"; "&#xG;";
    "&nope;"; "&amp"; "&#65"; "]]>"; "<!-- -- -->"; "<?"; "<!" ]

(* One document in six has bad pieces in its text. *)
let gen_src : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let good = map fst (Test_xml.gen_run Test_xml.text_pieces) in
  let bad = frequency [ (12, good); (1, oneofl bad_pieces) ] in
  let* text = frequency [ (5, return good); (1, return bad) ] in
  let attr quote name =
    let+ src, _ = Test_xml.gen_run Test_xml.attr_pieces in
    Printf.sprintf " %s=%c%s%c" name quote src quote
  in
  let rec element levels =
    let* name = oneofl names in
    let* anames = oneofl [ []; [ "x" ]; [ "x"; "y" ]; [ "y"; "z"; "x" ] ] in
    let* quote = oneofl [ '"'; '\'' ] in
    let* attrs = flatten_l (List.map (attr quote) anames) in
    let* kids =
      match levels with
      | [] -> return []
      | (lo, hi) :: deeper ->
          let* k = int_range lo hi in
          list_repeat k (element deeper)
    in
    let* runs = list_repeat (List.length kids + 1) text in
    let+ self_close = bool in
    let open_tag = "<" ^ name ^ String.concat "" attrs in
    let run = List.hd runs in
    if self_close && kids = [] && run = "" then open_tag ^ "/>"
    else
      open_tag ^ ">" ^ run
      ^ String.concat "" (List.map2 ( ^ ) kids (List.tl runs))
      ^ "</" ^ name ^ ">"
  in
  let* prolog = oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!-- p -->"; " <!DOCTYPE a>" ] in
  let* trail = oneofl [ ""; "\n"; "<!-- t --> "; "<?t?>" ] in
  let+ body = oneofl shapes >>= element in
  prolog ^ body ^ trail

(* One byte deleted, duplicated or replaced by a markup character, or the
   document as generated. *)
let gen_input =
  let open QCheck2.Gen in
  let* src = gen_src in
  let n = String.length src in
  let* i = int_range 0 (n - 1) in
  let* c = oneofl [ '<'; '>'; '&'; ';'; '"'; '\''; '/'; '!'; '?'; '=' ] in
  oneofl
    [ src;
      String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1);
      String.sub src 0 (i + 1) ^ String.sub src i (n - i);
      String.sub src 0 i ^ String.make 1 c ^ String.sub src (i + 1) (n - i - 1) ]

type outcome = Tree of Xml.Tree.t | Failed of int * int * string

let run_new src =
  match Xml.Parser.parse src with
  | t -> Tree t
  | exception Xml.Parser.Error { line; col; msg } -> Failed (line, col, msg)

let run_oracle src =
  match Parser_oracle.parse src with
  | t -> Tree t
  | exception Parser_oracle.Error { line; col; msg } -> Failed (line, col, msg)

let test_same_as_oracle () =
  let total = ref 0 and errors = ref 0 in
  let prop =
    QCheck2.Test.make ~name:"parse = the replaced parser, trees and errors" ~count:1500
      ~print:Fun.id gen_input (fun src ->
        let expected = run_oracle src in
        incr total;
        (match expected with Failed _ -> incr errors | Tree _ -> ());
        run_new src = expected)
  in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 37 |]) prop;
  Printf.printf "%d of %d inputs raise an error\n" !errors !total;
  (* Both outcomes must be common, or the property checks only one. *)
  if !errors * 10 < !total || !errors * 10 > 9 * !total then
    Alcotest.failf "%d of %d inputs raise an error (want 10%%-90%%)" !errors !total

let suite =
  [ Alcotest.test_case "same trees and errors as the replaced parser" `Quick
      test_same_as_oracle ]
