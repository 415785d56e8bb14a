(* Each byte's entity, as an index into [entities]: ['\000'] for a byte
   written as it is.  ['"'] is special only in attribute values. *)
let entities = [| ""; "&amp;"; "&lt;"; "&gt;"; "&quot;" |]

let table ~attr =
  String.init 256 (fun c ->
      match Char.chr c with
      | '&' -> '\001'
      | '<' -> '\002'
      | '>' -> '\003'
      | '"' when attr -> '\004'
      | _ -> '\000')

let text_table = table ~attr:false
let attr_table = table ~attr:true

(* The first index in [[i, stop)] whose byte [table] escapes, or [stop]. *)
let rec clean_until table s i stop =
  if i < stop && String.unsafe_get table (Char.code (String.unsafe_get s i)) = '\000' then
    clean_until table s (i + 1) stop
  else i

(* Escape [s] from [i] to [stop]: each clean run goes in with one
   [add_substring], each special byte as its entity. *)
let rec add_escaped table b s i stop =
  let j = clean_until table s i stop in
  if j > i then Buffer.add_substring b s i (j - i);
  if j < stop then begin
    let e = String.unsafe_get table (Char.code (String.unsafe_get s j)) in
    Buffer.add_string b (Array.unsafe_get entities (Char.code e));
    add_escaped table b s (j + 1) stop
  end

let check_slice s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Xml.Printer: bad slice"

let add_escaped_text b s pos len =
  check_slice s pos len;
  add_escaped text_table b s pos (pos + len)

let add_escaped_attr b s pos len =
  check_slice s pos len;
  add_escaped attr_table b s pos (pos + len)

let escape_text s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped_text b s 0 (String.length s);
  Buffer.contents b

let escape_attr s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped_attr b s 0 (String.length s);
  Buffer.contents b

module Writer = struct
  type t = {
    buf : Buffer.t;
    indent : bool;
    mutable in_tag : bool; (* the last start tag still lacks its '>' or "/>" *)
    mutable elements : int;
    mutable depth : int; (* open elements *)
    (* Indented mode: the innermost open element has an element child, so
       its content goes one node per line.  Also true at the top level. *)
    mutable lines : bool;
    (* Indented mode, while [lines] is false: where each of the innermost
       element's texts starts in [buf], so that an element child arriving
       after them can move them onto their own lines. *)
    mutable marks : int array;
    mutable nmarks : int;
    on_close : (Buffer.t -> unit) option;
  }

  let create ?(indent = false) ?on_close buf =
    {
      buf;
      indent;
      in_tag = false;
      elements = 0;
      depth = 0;
      lines = true;
      marks = [||];
      nmarks = 0;
      on_close;
    }

  let end_start_tag w =
    if w.in_tag then begin
      Buffer.add_char w.buf '>';
      w.in_tag <- false
    end

  let add_indent w =
    for _ = 1 to w.depth do
      Buffer.add_string w.buf "  "
    done

  (* The innermost element gets its first element child: end its start
     tag with a newline and put each text written so far on a line of its
     own. *)
  let break_lines w =
    if w.in_tag then begin
      Buffer.add_string w.buf ">\n";
      w.in_tag <- false
    end
    else begin
      let start = w.marks.(0) in
      let texts = Buffer.sub w.buf start (Buffer.length w.buf - start) in
      Buffer.truncate w.buf start;
      Buffer.add_char w.buf '\n';
      for i = 0 to w.nmarks - 1 do
        let stop = if i + 1 < w.nmarks then w.marks.(i + 1) else start + String.length texts in
        add_indent w;
        Buffer.add_substring w.buf texts (w.marks.(i) - start) (stop - w.marks.(i));
        Buffer.add_char w.buf '\n'
      done
    end;
    w.lines <- true

  let open_element w name =
    if w.indent then begin
      if not w.lines then break_lines w;
      add_indent w;
      w.lines <- false;
      w.nmarks <- 0
    end
    else end_start_tag w;
    Buffer.add_char w.buf '<';
    Buffer.add_string w.buf name;
    w.in_tag <- true;
    w.depth <- w.depth + 1;
    w.elements <- w.elements + 1

  let attribute w name s pos len =
    Buffer.add_char w.buf ' ';
    Buffer.add_string w.buf name;
    Buffer.add_string w.buf "=\"";
    add_escaped_attr w.buf s pos len;
    Buffer.add_char w.buf '"';
    w.elements <- w.elements + 1

  let mark w =
    if w.nmarks = Array.length w.marks then begin
      let a = Array.make (max 4 (2 * w.nmarks)) 0 in
      Array.blit w.marks 0 a 0 w.nmarks;
      w.marks <- a
    end;
    w.marks.(w.nmarks) <- Buffer.length w.buf;
    w.nmarks <- w.nmarks + 1

  let text w s pos len =
    if w.indent && w.lines then begin
      add_indent w;
      add_escaped_text w.buf s pos len;
      Buffer.add_char w.buf '\n'
    end
    else begin
      end_start_tag w;
      if w.indent then mark w;
      add_escaped_text w.buf s pos len
    end

  let close_element w name =
    w.depth <- w.depth - 1;
    if w.in_tag then Buffer.add_string w.buf "/>"
    else begin
      if w.indent && w.lines then add_indent w;
      Buffer.add_string w.buf "</";
      Buffer.add_string w.buf name;
      Buffer.add_char w.buf '>'
    end;
    if w.indent then begin
      Buffer.add_char w.buf '\n';
      w.lines <- true
    end;
    w.in_tag <- false;
    match w.on_close with Some f -> f w.buf | None -> ()

  let elements w = w.elements
end

let rec replay w = function
  | Tree.Text s -> Writer.text w s 0 (String.length s)
  | Tree.Element { name; attrs; children } ->
      Writer.open_element w name;
      List.iter (fun (k, v) -> Writer.attribute w k v 0 (String.length v)) attrs;
      List.iter (replay w) children;
      Writer.close_element w name

let to_buffer b t = replay (Writer.create b) t

let to_string t =
  let b = Buffer.create 1024 in
  to_buffer b t;
  Buffer.contents b

let to_string_indented t =
  let b = Buffer.create 1024 in
  replay (Writer.create ~indent:true b) t;
  Buffer.contents b

(* The length of [s] escaped by [table]. *)
let escaped_length table s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    let e = String.unsafe_get table (Char.code (String.unsafe_get s i)) in
    n := !n + if e = '\000' then 1 else String.length entities.(Char.code e)
  done;
  !n

let serialized_size t =
  (* Count without materializing: mirror [to_buffer]. *)
  let text_len = escaped_length text_table and attr_text_len = escaped_length attr_table in
  let attr_len (k, v) = 4 + String.length k + attr_text_len v in
  let rec go t =
    match t with
    | Tree.Text s -> text_len s
    | Tree.Element { name; attrs; children } ->
        let a = List.fold_left (fun acc kv -> acc + attr_len kv) 0 attrs in
        if children = [] then 3 + String.length name + a
        else
          List.fold_left
            (fun acc c -> acc + go c)
            ((2 * String.length name) + 5 + a)
            children
  in
  go t

let pp fmt t = Format.pp_print_string fmt (to_string_indented t)
