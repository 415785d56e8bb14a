type token =
  | MORPH
  | MUTATE
  | TRANSLATE
  | COMPOSE
  | DROP
  | CLONE
  | NEW
  | RESTRICT
  | CHILDREN
  | DESCENDANTS
  | CAST
  | CAST_NARROWING
  | CAST_WIDENING
  | TYPE_FILL
  | ORDER_BY
  | IDENT of string
  | STRING of string
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | PIPE
  | COMMA
  | ARROW
  | EQUALS
  | STAR
  | DBL_STAR
  | BANG
  | EOF

exception Error of { pos : int; msg : string }

let keyword_of_string s =
  match String.uppercase_ascii s with
  | "MORPH" -> Some MORPH
  | "MUTATE" -> Some MUTATE
  | "TRANSLATE" | "TRANSFORM" -> Some TRANSLATE
  | "COMPOSE" -> Some COMPOSE
  | "DROP" -> Some DROP
  | "CLONE" -> Some CLONE
  | "NEW" -> Some NEW
  | "RESTRICT" -> Some RESTRICT
  | "CHILDREN" -> Some CHILDREN
  | "DESCENDANTS" -> Some DESCENDANTS
  | "CAST" -> Some CAST
  | "CAST-NARROWING" -> Some CAST_NARROWING
  | "CAST-WIDENING" -> Some CAST_WIDENING
  | "TYPE-FILL" -> Some TYPE_FILL
  | "ORDER-BY" -> Some ORDER_BY
  | _ -> None

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '@' | ':' | '-' -> true
  | _ -> false

let tokenize ?ctx src =
  Xmobs.Ctx.region ctx Xmobs.Layer.lex @@ fun () ->
  let n = String.length src in
  let out = ref [] in
  let emit tok pos = out := (tok, pos) :: !out in
  let rec go i =
    if i >= n then emit EOF i
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '[' -> emit LBRACKET i; go (i + 1)
      | ']' -> emit RBRACKET i; go (i + 1)
      | '(' -> emit LPAREN i; go (i + 1)
      | ')' -> emit RPAREN i; go (i + 1)
      | '|' -> emit PIPE i; go (i + 1)
      | ',' -> emit COMMA i; go (i + 1)
      | '!' -> emit BANG i; go (i + 1)
      | '=' -> emit EQUALS i; go (i + 1)
      | ('"' | '\'') as quote ->
          let j = ref (i + 1) in
          let b = Buffer.create 16 in
          let rec scan () =
            if !j >= n then
              raise (Error { pos = i; msg = "unterminated string literal" })
            else if src.[!j] = quote then incr j
            else begin
              Buffer.add_char b src.[!j];
              incr j;
              scan ()
            end
          in
          scan ();
          emit (STRING (Buffer.contents b)) i;
          go !j
      | '*' ->
          if i + 1 < n && src.[i + 1] = '*' then (emit DBL_STAR i; go (i + 2))
          else (emit STAR i; go (i + 1))
      | '-' when i + 1 < n && src.[i + 1] = '>' -> emit ARROW i; go (i + 2)
      | c when is_word_char c ->
          (* A '-' that starts an arrow terminates the word: "a->b" lexes as
             IDENT a, ARROW, IDENT b even though '-' is a word character. *)
          let j = ref i in
          while
            !j < n
            && is_word_char src.[!j]
            && not (src.[!j] = '-' && !j + 1 < n && src.[!j + 1] = '>')
          do
            incr j
          done;
          let word = String.sub src i (!j - i) in
          (match keyword_of_string word with
          | Some kw -> emit kw i
          | None -> emit (IDENT word) i);
          go !j
      | c -> raise (Error { pos = i; msg = Printf.sprintf "unexpected character %C" c })
  in
  go 0;
  List.rev !out

let token_to_string = function
  | MORPH -> "MORPH"
  | MUTATE -> "MUTATE"
  | TRANSLATE -> "TRANSLATE"
  | COMPOSE -> "COMPOSE"
  | DROP -> "DROP"
  | CLONE -> "CLONE"
  | NEW -> "NEW"
  | RESTRICT -> "RESTRICT"
  | CHILDREN -> "CHILDREN"
  | DESCENDANTS -> "DESCENDANTS"
  | CAST -> "CAST"
  | CAST_NARROWING -> "CAST-NARROWING"
  | CAST_WIDENING -> "CAST-WIDENING"
  | TYPE_FILL -> "TYPE-FILL"
  | ORDER_BY -> "ORDER-BY"
  | IDENT s -> Printf.sprintf "label %S" s
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LPAREN -> "("
  | RPAREN -> ")"
  | PIPE -> "|"
  | COMMA -> ","
  | ARROW -> "->"
  | EQUALS -> "="
  | STAR -> "*"
  | DBL_STAR -> "**"
  | BANG -> "!"
  | EOF -> "end of input"
