(* The XML parser as it was before it dispatched on one character, shared
   names within a parse, took text as source slices and built children in
   order: the reference [Xml.Parser] is checked against
   (test_parser_oracle.ml).  Unchanged but for its tree type, which is
   [Xml.Tree], and [parse], which opens no span. *)

exception Error of { line : int; col : int; msg : string }

(* [buf] is the one scratch buffer of a parse: an attribute value or a text
   run is built in it and taken out before the next one starts. *)
type state = { src : string; len : int; mutable pos : int; buf : Buffer.t }

let position st =
  (* Recompute line/col lazily: only on error paths.  At end of input the
     position is one past the last character. *)
  let line = ref 1 and col = ref 1 in
  for i = 0 to min st.pos st.len - 1 do
    if st.src.[i] = '\n' then (incr line; col := 1) else incr col
  done;
  (!line, !col)

let fail st msg =
  let line, col = position st in
  raise (Error { line; col; msg })

let eof st = st.pos >= st.len

let peek st = if eof st then '\000' else st.src.[st.pos]

let peek_at st i = if st.pos + i >= st.len then '\000' else st.src.[st.pos + i]

let advance st = st.pos <- st.pos + 1

(* A loop, not a local recursive function: that would allocate a closure
   on every probe. *)
let looking_at st s =
  let n = String.length s and i = ref 0 in
  if st.pos + n <= st.len then
    while !i < n && st.src.[st.pos + !i] = s.[!i] do incr i done;
  !i = n

(* Add the characters up to the next [stop], ['&'] or ['<'] (or the end of
   input) to [st.buf] in one copy. *)
let add_run st stop =
  let start = st.pos in
  while
    st.pos < st.len
    && (let c = st.src.[st.pos] in c <> stop && c <> '&' && c <> '<')
  do
    advance st
  done;
  Buffer.add_substring st.buf st.src start (st.pos - start)

let take_buf st =
  let s = Buffer.contents st.buf in
  Buffer.clear st.buf;
  s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Decode one entity or character reference; [st.pos] is at ['&']. *)
let parse_reference st =
  advance st;
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' || peek st = 'X' in
    if hex then advance st;
    let start = st.pos in
    let ok c =
      match c with
      | '0' .. '9' -> true
      | 'a' .. 'f' | 'A' .. 'F' -> hex
      | _ -> false
    in
    while (not (eof st)) && ok (peek st) do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string ((if hex then "0x" else "") ^ digits)
      with _ -> fail st "bad character reference"
    in
    if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
    (* Surrogate code points are encoded like any other, hence [unsafe]. *)
    Buffer.add_utf_8_uchar st.buf (Uchar.unsafe_of_int code)
  end
  else begin
    let name = parse_name st in
    expect st ";";
    match name with
    | "lt" -> Buffer.add_char st.buf '<'
    | "gt" -> Buffer.add_char st.buf '>'
    | "amp" -> Buffer.add_char st.buf '&'
    | "apos" -> Buffer.add_char st.buf '\''
    | "quot" -> Buffer.add_char st.buf '"'
    | other -> fail st (Printf.sprintf "unknown entity &%s;" other)
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  add_run st quote;
  while peek st = '&' do
    parse_reference st;
    add_run st quote
  done;
  if eof st then fail st "unterminated attribute value";
  if peek st <> quote then fail st "'<' in attribute value";
  advance st;
  take_buf st

(* Advance just past the next [close]; [what] names the construct. *)
let skip_past st close what =
  while not (eof st || looking_at st close) do
    advance st
  done;
  if eof st then fail st ("unterminated " ^ what);
  st.pos <- st.pos + String.length close

let skip_comment st =
  expect st "<!--";
  skip_past st "-->" "comment"

let skip_pi st =
  expect st "<?";
  skip_past st "?>" "processing instruction"

let skip_doctype st =
  expect st "<!DOCTYPE";
  (* Skip to the matching '>' allowing one level of '[' ... ']' internal subset. *)
  let depth = ref 0 in
  let rec go () =
    if eof st then fail st "unterminated DOCTYPE"
    else begin
      let c = peek st in
      advance st;
      match c with
      | '[' -> incr depth; go ()
      | ']' -> decr depth; go ()
      | '>' when !depth = 0 -> ()
      | _ -> go ()
    end
  in
  go ()

let parse_cdata st =
  expect st "<![CDATA[";
  let start = st.pos in
  skip_past st "]]>" "CDATA section";
  Buffer.add_substring st.buf st.src start (st.pos - 3 - start)

let is_blank b =
  let i = ref 0 in
  while !i < Buffer.length b && is_space (Buffer.nth b !i) do incr i done;
  !i = Buffer.length b

(* Flush the pending text run onto [items] unless it is whitespace only. *)
let flush_text st items =
  if is_blank st.buf then (Buffer.clear st.buf; items)
  else Xml.Tree.Text (take_buf st) :: items

(* The parse functions below are mutually recursive rather than nested
   local functions, which would allocate closures for every element. *)
let rec parse_element st =
  expect st "<";
  parse_attrs st (parse_name st) []

and parse_attrs st name acc =
  skip_space st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Xml.Tree.Element { name; attrs = List.rev acc; children = [] }
  end
  else if peek st = '>' then begin
    advance st;
    let children = parse_content st name [] in
    Xml.Tree.Element { name; attrs = List.rev acc; children }
  end
  else begin
    let aname = parse_name st in
    skip_space st;
    expect st "=";
    skip_space st;
    let v = parse_attr_value st in
    if List.mem_assoc aname acc then fail st (Printf.sprintf "duplicate attribute %s" aname);
    parse_attrs st name ((aname, v) :: acc)
  end

(* [items] holds the children parsed so far, last first.  Text accumulates
   in [st.buf] across comments, PIs, CDATA sections and references, and is
   flushed only at a child element or the close tag, so the buffer is empty
   whenever an element starts. *)
and parse_content st parent_name items =
  if eof st then fail st (Printf.sprintf "unterminated element <%s>" parent_name)
  else if looking_at st "</" then begin
    let items = flush_text st items in
    st.pos <- st.pos + 2;
    let n = String.length parent_name in
    (* The close tag is compared in place; only a mismatch is copied. *)
    if looking_at st parent_name && not (is_name_char (peek_at st n)) then
      st.pos <- st.pos + n
    else begin
      let cname = parse_name st in
      fail st (Printf.sprintf "mismatched close tag </%s> for <%s>" cname parent_name)
    end;
    skip_space st;
    expect st ">";
    List.rev items
  end
  else if looking_at st "<!--" then (skip_comment st; parse_content st parent_name items)
  else if looking_at st "<![CDATA[" then (parse_cdata st; parse_content st parent_name items)
  else if looking_at st "<?" then (skip_pi st; parse_content st parent_name items)
  else if peek st = '<' && is_name_start (peek_at st 1) then begin
    let items = flush_text st items in
    parse_content st parent_name (parse_element st :: items)
  end
  else if peek st = '<' then fail st "malformed markup"
  else begin
    if peek st = '&' then parse_reference st else add_run st '<';
    parse_content st parent_name items
  end

let parse_prolog st =
  skip_space st;
  if looking_at st "<?xml" then skip_pi st;
  let rec go () =
    skip_space st;
    if looking_at st "<!--" then (skip_comment st; go ())
    else if looking_at st "<!DOCTYPE" then (skip_doctype st; go ())
    else if looking_at st "<?" then (skip_pi st; go ())
  in
  go ()

let parse_document src =
  let st = { src; len = String.length src; pos = 0; buf = Buffer.create 256 } in
  parse_prolog st;
  if not (peek st = '<' && is_name_start (peek_at st 1)) then fail st "expected root element";
  let root = parse_element st in
  (* Trailing misc. *)
  let rec trail () =
    skip_space st;
    if looking_at st "<!--" then (skip_comment st; trail ())
    else if looking_at st "<?" then (skip_pi st; trail ())
    else if not (eof st) then fail st "content after root element"
  in
  trail ();
  root

let parse = parse_document
