(* Escape [s] from [start] (up to [i] scanned) to [stop]: each run
   between special characters goes in with one [add_substring].  ['"'] is
   special only in attribute values. *)
let rec add_escaped ~attr b s start i stop =
  if i = stop then Buffer.add_substring b s start (stop - start)
  else
    let entity =
      match String.unsafe_get s i with
      | '&' -> "&amp;"
      | '<' -> "&lt;"
      | '>' -> "&gt;"
      | '"' when attr -> "&quot;"
      | _ -> ""
    in
    if String.length entity = 0 then add_escaped ~attr b s start (i + 1) stop
    else begin
      Buffer.add_substring b s start (i - start);
      Buffer.add_string b entity;
      add_escaped ~attr b s (i + 1) (i + 1) stop
    end

let check_slice s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Xml.Printer: bad slice"

let add_escaped_text b s pos len =
  check_slice s pos len;
  add_escaped ~attr:false b s pos pos (pos + len)

let add_escaped_attr b s pos len =
  check_slice s pos len;
  add_escaped ~attr:true b s pos pos (pos + len)

let escape_text s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped_text b s 0 (String.length s);
  Buffer.contents b

let escape_attr s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped_attr b s 0 (String.length s);
  Buffer.contents b

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
  | Tree.Text s -> add_escaped_text b s 0 (String.length s)
  | Tree.Element { name; attrs; children } ->
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

module Writer = struct
  type t = {
    buf : Buffer.t;
    mutable in_tag : bool; (* the last start tag still lacks its '>' or "/>" *)
    mutable elements : int;
    on_close : (Buffer.t -> unit) option;
  }

  let create ?on_close buf = { buf; in_tag = false; elements = 0; on_close }

  let end_start_tag w =
    if w.in_tag then begin
      Buffer.add_char w.buf '>';
      w.in_tag <- false
    end

  let open_element w name =
    end_start_tag w;
    Buffer.add_char w.buf '<';
    Buffer.add_string w.buf name;
    w.in_tag <- true;
    w.elements <- w.elements + 1

  let attribute w name s pos len =
    Buffer.add_char w.buf ' ';
    Buffer.add_string w.buf name;
    Buffer.add_string w.buf "=\"";
    add_escaped_attr w.buf s pos len;
    Buffer.add_char w.buf '"';
    w.elements <- w.elements + 1

  let text w s pos len =
    end_start_tag w;
    add_escaped_text w.buf s pos len

  let close_element w name =
    if w.in_tag then Buffer.add_string w.buf "/>"
    else begin
      Buffer.add_string w.buf "</";
      Buffer.add_string w.buf name;
      Buffer.add_char w.buf '>'
    end;
    w.in_tag <- false;
    match w.on_close with Some f -> f w.buf | None -> ()

  let elements w = w.elements
end

let to_string t =
  let b = Buffer.create 1024 in
  to_buffer b t;
  Buffer.contents b

let only_text children =
  List.for_all (function Tree.Text _ -> true | Tree.Element _ -> false) children

let to_string_indented t =
  let b = Buffer.create 1024 in
  let rec go indent t =
    match t with
    | Tree.Text s ->
        Buffer.add_string b indent;
        add_escaped_text b s 0 (String.length s);
        Buffer.add_char b '\n'
    | Tree.Element { name; attrs; children } ->
        Buffer.add_string b indent;
        Buffer.add_char b '<';
        Buffer.add_string b name;
        add_attrs b attrs;
        if children = [] then Buffer.add_string b "/>\n"
        else if only_text children then begin
          Buffer.add_char b '>';
          List.iter
            (function Tree.Text s -> add_escaped_text b s 0 (String.length s) | _ -> ())
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

let serialized_size t =
  (* Count without materializing: mirror [to_buffer]. *)
  let text_len s =
    let n = ref 0 in
    String.iter
      (function
        | '&' -> n := !n + 5
        | '<' | '>' -> n := !n + 4
        | _ -> incr n)
      s;
    !n
  in
  let attr_text_len s =
    let n = ref 0 in
    String.iter
      (function
        | '&' -> n := !n + 5
        | '"' -> n := !n + 6
        | '<' | '>' -> n := !n + 4
        | _ -> incr n)
      s;
    !n
  in
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
