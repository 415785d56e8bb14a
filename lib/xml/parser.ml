exception Error of { line : int; col : int; msg : string }

(* The state of one parse; nothing outlives it, so parses on different
   threads share nothing.

   [buf] is the one scratch buffer of a parse: an attribute value or a
   text run that a reference, a CDATA section, a comment or a PI splits is
   built in it and taken out before the next one starts.  Pending text
   that is still one run of the source is kept as the slice
   [[text_start, text_stop)] of [src] instead ([text_start < 0]: none),
   and moves into [buf] only when another piece joins it; at most one of
   the two holds text.

   [names] is an open-addressing table of the names read so far, with
   [hashes] beside it and [""] in a free slot: a repeated element,
   attribute or entity name is looked up, not copied. *)
type state = {
  src : string;
  len : int;
  mutable pos : int;
  buf : Buffer.t;
  mutable text_start : int;
  mutable text_stop : int;
  mutable names : string array;
  mutable hashes : int array;
  mutable count : int;
}

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

(* Advance to the next [stop], ['&'] or ['<'] (or the end of input) and
   return that position.  The scanning loops keep the cursor in a local
   and store it once. *)
let scan_run st stop =
  let src = st.src and len = st.len and i = ref st.pos in
  while
    !i < len
    && (let c = String.unsafe_get src !i in c <> stop && c <> '&' && c <> '<')
  do
    incr i
  done;
  st.pos <- !i;
  !i

(* Add the characters up to the next [stop], ['&'] or ['<'] to [st.buf]
   in one copy. *)
let add_run st stop =
  let start = st.pos in
  Buffer.add_substring st.buf st.src start (scan_run st stop - start)

let take_buf st =
  let s = Buffer.contents st.buf in
  Buffer.clear st.buf;
  s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  let src = st.src and len = st.len and i = ref st.pos in
  while !i < len && is_space (String.unsafe_get src !i) do incr i done;
  st.pos <- !i

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let same_slice name src start n =
  String.length name = n
  && (let i = ref 0 in
      while !i < n && String.unsafe_get name !i = String.unsafe_get src (start + !i) do
        incr i
      done;
      !i = n)

(* The slot of the name [src[start, start + n)], hashed [h]: the slot
   holding it, or the free slot where it belongs (linear probing). *)
let slot names hashes h src start n =
  let mask = Array.length names - 1 in
  let i = ref (h land mask) in
  while
    let s = names.(!i) in
    String.length s > 0 && not (hashes.(!i) = h && same_slice s src start n)
  do
    i := (!i + 1) land mask
  done;
  !i

let grow st =
  let names = st.names and hashes = st.hashes in
  let size = 2 * Array.length names in
  st.names <- Array.make size "";
  st.hashes <- Array.make size 0;
  Array.iteri
    (fun j s ->
      if String.length s > 0 then begin
        let i = slot st.names st.hashes hashes.(j) s 0 (String.length s) in
        st.names.(i) <- s;
        st.hashes.(i) <- hashes.(j)
      end)
    names

(* The name [src[start, start + n)] as a string, copied only the first
   time this parse reads it.  The table stays at most half full. *)
let intern st start n h =
  let i = slot st.names st.hashes h st.src start n in
  let s = st.names.(i) in
  if String.length s > 0 then s
  else begin
    let s = String.sub st.src start n in
    st.names.(i) <- s;
    st.hashes.(i) <- h;
    st.count <- st.count + 1;
    if 2 * st.count > Array.length st.names then grow st;
    s
  end

(* The name is hashed as it is scanned. *)
let parse_name st =
  let src = st.src and len = st.len and start = st.pos in
  if not (start < len && is_name_start (String.unsafe_get src start)) then
    fail st "expected a name";
  let i = ref (start + 1) and h = ref (Char.code (String.unsafe_get src start)) in
  while !i < len && is_name_char (String.unsafe_get src !i) do
    h := (31 * !h) + Char.code (String.unsafe_get src !i);
    incr i
  done;
  st.pos <- !i;
  intern st start (!i - start) !h

(* Decode one entity or character reference into [st.buf]; [st.pos] is at
   ['&']. *)
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

(* A value that ends at its quote is one copy of the source; any other
   goes through [st.buf]. *)
let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  let start = st.pos in
  let stop = scan_run st quote in
  if stop < st.len && String.unsafe_get st.src stop = quote then begin
    advance st;
    String.sub st.src start (stop - start)
  end
  else begin
    Buffer.add_substring st.buf st.src start (stop - start);
    while peek st = '&' do
      parse_reference st;
      add_run st quote
    done;
    if eof st then fail st "unterminated attribute value";
    if peek st <> quote then fail st "'<' in attribute value";
    advance st;
    take_buf st
  end

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

(* Move a pending slice into [st.buf], so that another piece can join it. *)
let spill st =
  if st.text_start >= 0 then begin
    Buffer.add_substring st.buf st.src st.text_start (st.text_stop - st.text_start);
    st.text_start <- -1
  end

(* Add the text up to the next ['&'] or ['<'] to the pending text: as a
   slice while it is the only piece, else into [st.buf]. *)
let add_text_run st =
  let start = st.pos in
  let stop = scan_run st '<' in
  if st.text_start < 0 && Buffer.length st.buf = 0 then begin
    st.text_start <- start;
    st.text_stop <- stop
  end
  else begin
    spill st;
    Buffer.add_substring st.buf st.src start (stop - start)
  end

let parse_cdata st =
  expect st "<![CDATA[";
  let start = st.pos in
  skip_past st "]]>" "CDATA section";
  spill st;
  Buffer.add_substring st.buf st.src start (st.pos - 3 - start)

let blank_slice s start stop =
  let i = ref start in
  while !i < stop && is_space (String.unsafe_get s !i) do incr i done;
  !i = stop

(* What [take_text] returns for whitespace-only text. *)
let no_text = Tree.Text ""

(* Take the pending text: a [Text] item, or [no_text] when it is
   whitespace only (element-content whitespace, dropped). *)
let take_text st =
  if st.text_start >= 0 then begin
    let start = st.text_start and stop = st.text_stop in
    st.text_start <- -1;
    if blank_slice st.src start stop then no_text
    else Tree.Text (String.sub st.src start (stop - start))
  end
  else if Buffer.length st.buf = 0 then no_text
  else
    let s = take_buf st in
    if blank_slice s 0 (String.length s) then no_text else Tree.Text s

(* Past the close tag of [parent_name]; [st.pos] is at its ['<'].  The
   name is compared in place; only a mismatch is copied. *)
let close_tag st parent_name =
  st.pos <- st.pos + 2;
  let n = String.length parent_name in
  if looking_at st parent_name && not (is_name_char (peek_at st n)) then
    st.pos <- st.pos + n
  else begin
    let cname = parse_name st in
    fail st (Printf.sprintf "mismatched close tag </%s> for <%s>" cname parent_name)
  end;
  skip_space st;
  expect st ">"

(* Attributes are gathered last first; a list of at most one is its own
   reverse. *)
let in_order = function [] | [ _ ] as l -> l | l -> List.rev l

(* The parse functions below are mutually recursive rather than nested
   local functions, which would allocate closures for every element.
   [parse_element] starts at a ['<'] its caller has seen followed by a
   name-start character. *)
let rec parse_element st =
  advance st;
  parse_attrs st (parse_name st) []

and parse_attrs st name acc =
  skip_space st;
  match peek st with
  | '/' when peek_at st 1 = '>' ->
      st.pos <- st.pos + 2;
      Tree.Element { name; attrs = in_order acc; children = [] }
  | '>' ->
      advance st;
      let children = parse_content st name in
      Tree.Element { name; attrs = in_order acc; children }
  | _ ->
      let aname = parse_name st in
      skip_space st;
      expect st "=";
      skip_space st;
      let v = parse_attr_value st in
      (* Names are shared within a parse, so equal names are the same
         string. *)
      if List.mem_assq aname acc then fail st (Printf.sprintf "duplicate attribute %s" aname);
      parse_attrs st name ((aname, v) :: acc)

(* The children up to the close tag of [parent_name], in order: built
   tail-modulo-cons, so a wide element takes constant stack.  Text
   accumulates across comments, PIs, CDATA sections and references, and
   is taken only at a child element or the close tag, so no text is
   pending whenever an element starts. *)
and[@tail_mod_cons] parse_content st parent_name =
  if eof st then
    (fail [@tailcall false]) st (Printf.sprintf "unterminated element <%s>" parent_name)
  else
    match String.unsafe_get st.src st.pos with
    | '<' -> (
        match peek_at st 1 with
        | '/' ->
            let text = take_text st in
            close_tag st parent_name;
            if text == no_text then [] else [ text ]
        | '!' ->
            if looking_at st "<!--" then skip_comment st
            else if looking_at st "<![CDATA[" then parse_cdata st
            else fail st "malformed markup";
            parse_content st parent_name
        | '?' ->
            skip_pi st;
            parse_content st parent_name
        | c when is_name_start c ->
            let text = take_text st in
            let e = parse_element st in
            if text == no_text then e :: parse_content st parent_name
            else text :: e :: parse_content st parent_name
        | _ -> (fail [@tailcall false]) st "malformed markup")
    | '&' ->
        spill st;
        parse_reference st;
        parse_content st parent_name
    | _ ->
        add_text_run st;
        parse_content st parent_name

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
  let st =
    { src; len = String.length src; pos = 0; buf = Buffer.create 256; text_start = -1;
      text_stop = 0; names = Array.make 64 ""; hashes = Array.make 64 0; count = 0 }
  in
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

let parse ?ctx src =
  Xmobs.Ctx.region ctx Xmobs.Layer.xml_parse
    ~attrs:[ ("bytes", Xmobs.Trace.Int (String.length src)) ]
    (fun () -> parse_document src)

let error_message = function
  | Error { line; col; msg } ->
      Some (Printf.sprintf "XML parse error at line %d, column %d: %s" line col msg)
  | _ -> None
