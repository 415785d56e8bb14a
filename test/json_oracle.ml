(* The JSON writer as it was before its escaper copied clean runs and it
   printed integral floats without [Printf]: the reference
   [Xmutil.Json]'s output is checked against (test_json.ml).  Unchanged
   but for the type, which is [Xmutil.Json.t]. *)

open Xmutil.Json

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_buffer ?(pretty = true) b t =
  let rec go indent t =
    let nl deeper =
      if pretty then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make deeper ' ')
      end
    in
    match t with
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.0f" f)
        else Buffer.add_string b (Printf.sprintf "%g" f)
    | String s -> add_escaped b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            go (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            add_escaped b k;
            Buffer.add_string b (if pretty then ": " else ":");
            go (indent + 2) v)
          fields;
        nl indent;
        Buffer.add_char b '}'
  in
  go 0 t

let to_string ?pretty t =
  let b = Buffer.create 256 in
  to_buffer ?pretty b t;
  Buffer.contents b
