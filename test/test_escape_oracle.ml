(* [Xml.Printer]'s escaping against the escaper it replaced
   ([Escape_oracle]): on every slice of every string, the buffer adders,
   the string escapers and a [Writer]'s attribute and text write the
   oracle's bytes, and [serialized_size] counts them.  Strings are drawn weighted towards the characters
   either mode may escape, with other ASCII and UTF-8 bytes between, and
   escaped from random offsets. *)

(* One piece of a string: a character either mode may escape, an ASCII
   character, a UTF-8 sequence, or a lone byte above 127. *)
let gen_piece =
  QCheck2.Gen.(
    frequency
      [ (5, map (String.make 1) (oneofl [ '&'; '<'; '>'; '"'; '\'' ]));
        (5, map (String.make 1) (char_range ' ' '~'));
        (1, map (String.make 1) (oneofl [ '\t'; '\n'; '\r'; '\000' ]));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\xce\xbb" ]);
        (1, map (String.make 1) (char_range '\128' '\255')) ])

(* A string and a slice of it. *)
let gen_case =
  QCheck2.Gen.(
    let* n = frequency [ (4, int_range 0 12); (2, int_range 0 80); (1, int_range 200 600) ] in
    let* s = map (String.concat "") (list_repeat n gen_piece) in
    let* pos = int_range 0 (String.length s) in
    let+ len = int_range 0 (String.length s - pos) in
    (s, pos, len))

let oracle add s pos len =
  let b = Buffer.create 16 in
  add b s pos len;
  Buffer.contents b

let agree (s, pos, len) =
  let text = oracle Escape_oracle.add_escaped_text s pos len
  and attr = oracle Escape_oracle.add_escaped_attr s pos len in
  (* the adders append to what the buffer holds *)
  let added add =
    let b = Buffer.create 1 in
    Buffer.add_string b "pre";
    add b s pos len;
    Buffer.sub b 3 (Buffer.length b - 3)
  in
  let copy = String.sub s pos len in
  let written =
    let b = Buffer.create 16 in
    let w = Xml.Printer.Writer.create b in
    Xml.Printer.Writer.open_element w "e";
    Xml.Printer.Writer.attribute w "k" s pos len;
    Xml.Printer.Writer.text w s pos len;
    Xml.Printer.Writer.close_element w "e";
    Buffer.contents b
  in
  let check what want got =
    if want <> got then QCheck2.Test.fail_reportf "%s: want %S, got %S" what want got
  in
  check "add_escaped_text" text (added Xml.Printer.add_escaped_text);
  check "add_escaped_attr" attr (added Xml.Printer.add_escaped_attr);
  check "escape_text" text (Xml.Printer.escape_text copy);
  check "escape_attr" attr (Xml.Printer.escape_attr copy);
  check "Writer" ("<e k=\"" ^ attr ^ "\">" ^ text ^ "</e>") written;
  let tree = Xml.Tree.Element { name = "e"; attrs = [ ("k", copy) ]; children = [ Text copy ] } in
  if Xml.Printer.serialized_size tree <> String.length written then
    QCheck2.Test.fail_reportf "serialized_size: want %d, got %d" (String.length written)
      (Xml.Printer.serialized_size tree);
  true

let print_case (s, pos, len) = Printf.sprintf "%S from %d for %d" s pos len

let prop_agrees =
  QCheck2.Test.make ~name:"escaping = the replaced escaper on random slices" ~count:2000
    ~print:print_case
    (* unshrunk, so that a failure prints its case at once *)
    (QCheck2.Gen.no_shrink gen_case)
    agree

let suite = [ QCheck_alcotest.to_alcotest prop_agrees ]
