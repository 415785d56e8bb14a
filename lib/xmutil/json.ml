type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let hex = "0123456789abcdef"

(* Escape [s] from [start] (up to [i] scanned): each run between bytes
   that need an escape goes in with one [add_substring]. *)
let rec add_escaped_from b s start i =
  if i = String.length s then Buffer.add_substring b s start (i - start)
  else
    let c = String.unsafe_get s i in
    if c >= ' ' && c <> '"' && c <> '\\' then add_escaped_from b s start (i + 1)
    else begin
      Buffer.add_substring b s start (i - start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]);
      add_escaped_from b s (i + 1) (i + 1)
    end

let add_escaped b s =
  Buffer.add_char b '"';
  add_escaped_from b s 0 0;
  Buffer.add_char b '"'

(* The formatter [Printf]'s [%g] calls, without [Printf] interpreting the
   format each time: [%g] is [%.6g]. *)
external format_float : string -> float -> string = "caml_format_float"

let to_buffer ?(pretty = true) b t =
  let nl indent =
    if pretty then begin
      Buffer.add_char b '\n';
      for _ = 1 to indent do
        Buffer.add_char b ' '
      done
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        Buffer.add_string b
          (if Float.is_integer f && Float.abs f < 1e15 then
             (* what [%.0f] prints: the integer, and [-0] for negative zero *)
             if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
           else format_float "%.6g" f)
    | String s -> add_escaped b s
    | List [] -> Buffer.add_string b "[]"
    | List l ->
        Buffer.add_char b '[';
        items (indent + 2) false l;
        nl indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj l ->
        Buffer.add_char b '{';
        fields (indent + 2) false l;
        nl indent;
        Buffer.add_char b '}'
  and items indent sep = function
    | [] -> ()
    | item :: rest ->
        if sep then Buffer.add_char b ',';
        nl indent;
        go indent item;
        items indent true rest
  and fields indent sep = function
    | [] -> ()
    | (k, v) :: rest ->
        if sep then Buffer.add_char b ',';
        nl indent;
        add_escaped b k;
        Buffer.add_string b (if pretty then ": " else ":");
        go indent v;
        fields indent true rest
  in
  go 0 t

let to_string ?pretty t =
  let b = Buffer.create 256 in
  to_buffer ?pretty b t;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Parse_error of { pos : int; msg : string }

type cursor = { src : string; mutable pos : int }

let perr c msg = raise (Parse_error { pos = c.pos; msg })

let peek_c c = if c.pos >= String.length c.src then '\000' else c.src.[c.pos]

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect_c c ch =
  if peek_c c = ch then c.pos <- c.pos + 1
  else perr c (Printf.sprintf "expected %C" ch)

let expect_lit c lit v =
  let n = String.length lit in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = lit then begin
    c.pos <- c.pos + n;
    v
  end
  else perr c (Printf.sprintf "expected %s" lit)

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body c =
  expect_c c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then perr c "unterminated string"
    else
      match c.src.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          c.pos <- c.pos + 1;
          (match peek_c c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if c.pos + 4 >= String.length c.src then perr c "truncated \\u escape";
              let hex = String.sub c.src (c.pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> perr c "bad \\u escape"
              in
              c.pos <- c.pos + 4;
              add_utf8 b code
          | _ -> perr c "bad escape");
          c.pos <- c.pos + 1;
          go ()
      | ch ->
          Buffer.add_char b ch;
          c.pos <- c.pos + 1;
          go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek_c c = '-' then c.pos <- c.pos + 1;
  let digit () =
    while match peek_c c with '0' .. '9' -> true | _ -> false do
      c.pos <- c.pos + 1
    done
  in
  digit ();
  if peek_c c = '.' then begin
    is_float := true;
    c.pos <- c.pos + 1;
    digit ()
  end;
  (match peek_c c with
  | 'e' | 'E' ->
      is_float := true;
      c.pos <- c.pos + 1;
      (match peek_c c with '+' | '-' -> c.pos <- c.pos + 1 | _ -> ());
      digit ()
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> perr c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Integer literal too large for an OCaml int. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> perr c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek_c c with
  | 'n' -> expect_lit c "null" Null
  | 't' -> expect_lit c "true" (Bool true)
  | 'f' -> expect_lit c "false" (Bool false)
  | '"' -> String (parse_string_body c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek_c c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek_c c = ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect_c c ']';
        List (List.rev !items)
      end
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek_c c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect_c c ':';
          let v = parse_value c in
          skip_ws c;
          (k, v)
        in
        let fields = ref [ field () ] in
        while peek_c c = ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields
        done;
        expect_c c '}';
        Obj (List.rev !fields)
      end
  | '-' | '0' .. '9' -> parse_number c
  | _ -> perr c "expected a JSON value"

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then perr c "trailing content after JSON value";
  v

let error_message ~pos ~msg = Printf.sprintf "invalid JSON at byte %d: %s" pos msg

(* ---------- files ---------- *)

let read_file path =
  let ic = open_in_bin path in
  of_string
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

(* Temp file + rename in the same directory: a reader (another process,
   a /debug route, the offline viewer) never sees a half-written file. *)
let write_file path v =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n';
      close_out oc);
  Sys.rename tmp path

(* ---------- tolerant reads ---------- *)

let rec path j = function
  | [] -> Some j
  | name :: rest -> (
      match j with
      | Obj fs -> (
          match List.assoc_opt name fs with Some j -> path j rest | None -> None)
      | _ -> None)

let number_at j p =
  match path j p with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let int_at j p =
  match path j p with
  | Some (Int i) -> Some i
  | Some (Float f) -> Some (int_of_float f)
  | _ -> None

let string_at j p = match path j p with Some (String s) -> Some s | _ -> None

let list_at j p = match path j p with Some (List l) -> l | _ -> []

(* ---------- strict reads ---------- *)

type fields = { what : string; members : (string * t) list }

let fail f fmt = Printf.ksprintf (fun m -> failwith (f.what ^ ": " ^ m)) fmt

let fields ~what = function
  | Obj members -> { what; members }
  | _ -> failwith (what ^ ": not a JSON object")

let field f name =
  match List.assoc_opt name f.members with
  | Some v -> v
  | None -> fail f "missing field %S" name

let int_field f name =
  match field f name with
  | Int i -> i
  | Float x -> int_of_float x
  | _ -> fail f "field %S is not a number" name

let float_field f name =
  match field f name with
  | Float x -> x
  | Int i -> float_of_int i
  | _ -> fail f "field %S is not a number" name

let string_field f name =
  match field f name with
  | String s -> s
  | _ -> fail f "field %S is not a string" name

let list_field f name =
  match field f name with
  | List l -> l
  | _ -> fail f "field %S is not a list" name

let object_field f name =
  match field f name with
  | Obj members -> { f with members }
  | _ -> fail f "field %S is not an object" name
