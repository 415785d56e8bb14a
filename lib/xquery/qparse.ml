exception Error of { pos : int; msg : string }

type st = { src : string; len : int; mutable pos : int }

let fail st msg = raise (Error { pos = st.pos; msg })

let peek_at st off =
  if st.pos + off >= st.len then '\000' else st.src.[st.pos + off]

let peek st = peek_at st 0

let rec skip_ws st =
  if st.pos < st.len then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        st.pos <- st.pos + 1;
        skip_ws st
    | '(' when peek_at st 1 = ':' ->
        (* XQuery comment, possibly nested. *)
        let depth = ref 0 in
        let rec go () =
          if st.pos >= st.len then fail st "unterminated comment"
          else if peek st = '(' && peek_at st 1 = ':' then begin
            incr depth; st.pos <- st.pos + 2; go ()
          end
          else if peek st = ':' && peek_at st 1 = ')' then begin
            decr depth; st.pos <- st.pos + 2;
            if !depth > 0 then go ()
          end
          else begin st.pos <- st.pos + 1; go () end
        in
        go ();
        skip_ws st
    | _ -> ()

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.src st.pos n = s

let eat st s =
  if looking_at st s then (st.pos <- st.pos + String.length s; true) else false

let expect st s = if not (eat st s) then fail st (Printf.sprintf "expected %S" s)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' | ':' -> true | _ -> false)

let is_digit = function '0' .. '9' -> true | _ -> false

(* A QName has at most one colon, so a name ends before [::], which
   separates an axis from its node test. *)
let name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while
    st.pos < st.len && is_name_char (peek st)
    && not (peek st = ':' && peek_at st 1 = ':')
  do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* A keyword must not be followed by a name character. *)
let keyword st kw =
  skip_ws st;
  let n = String.length kw in
  if
    looking_at st kw
    && (st.pos + n >= st.len || not (is_name_char st.src.[st.pos + n]))
  then (st.pos <- st.pos + n; true)
  else false

let string_literal st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a string literal";
  st.pos <- st.pos + 1;
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then fail st "unterminated string literal"
    else
      let c = peek st in
      if c = quote then
        if peek_at st 1 = quote then begin
          (* doubled quote escapes itself *)
          Buffer.add_char b quote; st.pos <- st.pos + 2; go ()
        end
        else st.pos <- st.pos + 1
      else begin Buffer.add_char b c; st.pos <- st.pos + 1; go () end
  in
  go ();
  Buffer.contents b

let number st =
  let start = st.pos in
  while is_digit (peek st) do st.pos <- st.pos + 1 done;
  if peek st = '.' && is_digit (peek_at st 1) then begin
    st.pos <- st.pos + 1;
    while is_digit (peek st) do st.pos <- st.pos + 1 done
  end;
  float_of_string (String.sub st.src start (st.pos - start))

let var_name st =
  expect st "$";
  name st

(* ------------------------------------------------------------------ *)

let rec parse_expr st : Qast.expr =
  let first = parse_single st in
  skip_ws st;
  if peek st = ',' then begin
    let items = ref [ first ] in
    while (skip_ws st; peek st = ',') do
      st.pos <- st.pos + 1;
      items := parse_single st :: !items
    done;
    Qast.Sequence (List.rev !items)
  end
  else first

and parse_single st : Qast.expr =
  skip_ws st;
  let save = st.pos in
  let peek_kw kw =
    let r = keyword st kw in
    st.pos <- save;
    r
  in
  if peek_kw "for" || peek_kw "let" then parse_flwor st
  else if keyword st "if" then begin
    skip_ws st;
    expect st "(";
    let c = parse_expr st in
    skip_ws st;
    expect st ")";
    if not (keyword st "then") then fail st "expected then";
    let t = parse_single st in
    if not (keyword st "else") then fail st "expected else";
    let e = parse_single st in
    Qast.If (c, t, e)
  end
  else if keyword st "some" then parse_quant st Qast.Some_
  else if keyword st "every" then parse_quant st Qast.Every
  else parse_or st

and parse_quant st q =
  skip_ws st;
  let v = var_name st in
  if not (keyword st "in") then fail st "expected in";
  let e = parse_single st in
  if not (keyword st "satisfies") then fail st "expected satisfies";
  let sat = parse_single st in
  Qast.Quantified (q, v, e, sat)

and parse_flwor st =
  let clauses = ref [] in
  let rec clause_loop () =
    skip_ws st;
    if keyword st "for" then begin
      let rec vars () =
        skip_ws st;
        let v = var_name st in
        if not (keyword st "in") then fail st "expected in";
        let e = parse_single st in
        clauses := Qast.For (v, e) :: !clauses;
        skip_ws st;
        if peek st = ',' then begin st.pos <- st.pos + 1; vars () end
      in
      vars ();
      clause_loop ()
    end
    else if keyword st "let" then begin
      let rec vars () =
        skip_ws st;
        let v = var_name st in
        skip_ws st;
        expect st ":=";
        let e = parse_single st in
        clauses := Qast.Let (v, e) :: !clauses;
        skip_ws st;
        if peek st = ',' then begin st.pos <- st.pos + 1; vars () end
      in
      vars ();
      clause_loop ()
    end
  in
  clause_loop ();
  let where = if keyword st "where" then Some (parse_single st) else None in
  let order =
    if keyword st "order" then begin
      if not (keyword st "by") then fail st "expected by after order";
      let rec specs acc =
        let key = parse_or st in
        let descending =
          if keyword st "descending" then true
          else begin
            ignore (keyword st "ascending");
            false
          end
        in
        let acc = { Qast.key; descending } :: acc in
        skip_ws st;
        if peek st = ',' then begin st.pos <- st.pos + 1; specs acc end
        else List.rev acc
      in
      specs []
    end
    else []
  in
  if not (keyword st "return") then fail st "expected return";
  let ret = parse_single st in
  Qast.Flwor (List.rev !clauses, where, order, ret)

and parse_or st =
  let a = parse_and st in
  if keyword st "or" then Qast.Or (a, parse_or st) else a

and parse_and st =
  let a = parse_cmp st in
  if keyword st "and" then Qast.And (a, parse_and st) else a

and parse_cmp st =
  let a = parse_additive st in
  skip_ws st;
  let mk c = Qast.Compare (c, a, parse_additive st) in
  if eat st "!=" then mk Qast.Neq
  else if eat st "<=" then mk Qast.Le
  else if eat st ">=" then mk Qast.Ge
  else if eat st "=" then mk Qast.Eq
  else if peek st = '<' && peek_at st 1 <> '/' && not (is_name_start (peek_at st 1))
  then (st.pos <- st.pos + 1; mk Qast.Lt)
  else if eat st ">" then mk Qast.Gt
  else a

and parse_additive st =
  let a = ref (parse_mult st) in
  let rec go () =
    skip_ws st;
    if eat st "+" then begin a := Qast.Arith (Qast.Add, !a, parse_mult st); go () end
    else if peek st = '-' then begin
      (* names cannot start with '-', so after a complete operand a '-' is
         always subtraction *)
      st.pos <- st.pos + 1;
      a := Qast.Arith (Qast.Sub, !a, parse_mult st);
      go ()
    end
  in
  go ();
  !a

and parse_mult st =
  let a = ref (parse_unary st) in
  let rec go () =
    skip_ws st;
    if peek st = '*' then begin
      st.pos <- st.pos + 1;
      a := Qast.Arith (Qast.Mul, !a, parse_unary st);
      go ()
    end
    else if keyword st "div" then begin
      a := Qast.Arith (Qast.Div, !a, parse_unary st);
      go ()
    end
    else if keyword st "mod" then begin
      a := Qast.Arith (Qast.Mod, !a, parse_unary st);
      go ()
    end
  in
  go ();
  !a

and parse_unary st =
  skip_ws st;
  if peek st = '-' then begin
    st.pos <- st.pos + 1;
    skip_ws st;
    if is_digit (peek st) then Qast.Literal_number (-.number st)
    else Qast.Neg (parse_unary st)
  end
  else parse_path st

and parse_step st : Qast.axis * Qast.node_test * Qast.expr list =
  skip_ws st;
  let axis, test =
    if eat st "@" then (Qast.Attribute, Qast.Name (name st))
    else if eat st "*" then (Qast.Child, Qast.Any)
    else begin
      let at = st.pos in
      let n = name st in
      if (skip_ws st; eat st "::") then begin
        skip_ws st;
        match n with
        | "child" ->
            if eat st "*" then (Qast.Child, Qast.Any)
            else (Qast.Child, name_test st (name st))
        | "attribute" -> (Qast.Attribute, Qast.Name (name st))
        (* A descendant step's positional predicate counts each context
           node's descendants in document order, as the XPath axis does. *)
        | "descendant" ->
            if eat st "*" then (Qast.Descendant, Qast.Any)
            else (Qast.Descendant, name_test st (name st))
        | _ ->
            raise
              (Error
                 { pos = at; msg = Printf.sprintf "unsupported axis %s::" n })
      end
      else (Qast.Child, name_test st n)
    end
  in
  (axis, test, parse_predicates st)

(* The node test a child step names: [text()] or an element name. *)
and name_test st n =
  if n = "text" && (skip_ws st; looking_at st "()") then begin
    expect st "()";
    Qast.Text
  end
  else Qast.Name n

and parse_predicates st =
  let preds = ref [] in
  let rec go () =
    skip_ws st;
    if peek st = '[' then begin
      st.pos <- st.pos + 1;
      preds := parse_expr st :: !preds;
      skip_ws st;
      expect st "]";
      go ()
    end
  in
  go ();
  List.rev !preds

and parse_path st : Qast.expr =
  skip_ws st;
  let base =
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      let ax, t, preds = parse_step st in
      let ax = if ax = Qast.Attribute then ax else Qast.Descendant in
      Qast.Path (Qast.Root, ax, t, preds)
    end
    else if peek st = '/' && peek_at st 1 <> '\000' then begin
      st.pos <- st.pos + 1;
      skip_ws st;
      if st.pos >= st.len || not (is_name_start (peek st) || peek st = '@' || peek st = '*')
      then Qast.Root
      else
        let ax, t, preds = parse_step st in
        Qast.Path (Qast.Root, ax, t, preds)
    end
    else parse_primary st
  in
  let rec steps acc =
    skip_ws st;
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      let ax, t, preds = parse_step st in
      let ax = if ax = Qast.Attribute then ax else Qast.Descendant in
      steps (Qast.Path (acc, ax, t, preds))
    end
    else if peek st = '/' then begin
      st.pos <- st.pos + 1;
      let ax, t, preds = parse_step st in
      steps (Qast.Path (acc, ax, t, preds))
    end
    else acc
  in
  steps base

and parse_primary st : Qast.expr =
  skip_ws st;
  match peek st with
  | '"' | '\'' -> Qast.Literal_string (string_literal st)
  | c when is_digit c -> Qast.Literal_number (number st)
  | '$' -> Qast.Var (var_name st)
  | '.' -> st.pos <- st.pos + 1; Qast.Context_item
  | '(' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if eat st ")" then Qast.Sequence []
      else begin
        let e = parse_expr st in
        skip_ws st;
        expect st ")";
        e
      end
  | '<' -> parse_constructor st
  | '@' | '*' ->
      let ax, t, preds = parse_step st in
      Qast.Step (ax, t, preds)
  | c when is_name_start c ->
      let save = st.pos in
      let n = name st in
      skip_ws st;
      if peek st = '(' && n <> "text" then begin
        st.pos <- st.pos + 1;
        let args = ref [] in
        skip_ws st;
        if not (eat st ")") then begin
          let rec go () =
            args := parse_single st :: !args;
            skip_ws st;
            if eat st "," then go () else expect st ")"
          in
          go ()
        end;
        Qast.Call (n, List.rev !args)
      end
      else begin
        st.pos <- save;
        let ax, t, preds = parse_step st in
        Qast.Step (ax, t, preds)
      end
  | _ -> fail st "expected an expression"

and parse_constructor st : Qast.expr =
  expect st "<";
  let tag = name st in
  let attrs = ref [] in
  let rec attr_loop () =
    skip_ws st;
    if eat st "/>" then Qast.Element (tag, List.rev !attrs, [])
    else if eat st ">" then begin
      let content = parse_content st tag in
      Qast.Element (tag, List.rev !attrs, content)
    end
    else begin
      let aname = name st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let quote = peek st in
      if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
      st.pos <- st.pos + 1;
      (* Attribute value: either a single {expr} or literal text. *)
      skip_ws st;
      if peek st = '{' then begin
        st.pos <- st.pos + 1;
        let e = parse_expr st in
        skip_ws st;
        expect st "}";
        skip_ws st;
        if peek st <> quote then fail st "expected end of attribute value";
        st.pos <- st.pos + 1;
        attrs := (aname, Qast.Attr_expr e) :: !attrs
      end
      else begin
        let b = Buffer.create 8 in
        while st.pos < st.len && peek st <> quote do
          Buffer.add_char b (peek st);
          st.pos <- st.pos + 1
        done;
        if st.pos >= st.len then fail st "unterminated attribute value";
        st.pos <- st.pos + 1;
        attrs := (aname, Qast.Attr_literal (Buffer.contents b)) :: !attrs
      end;
      attr_loop ()
    end
  in
  attr_loop ()

and parse_content st tag : Qast.content list =
  let items = ref [] in
  let text = Buffer.create 16 in
  let flush () =
    if Buffer.length text > 0 then begin
      let s = Buffer.contents text in
      Buffer.clear text;
      let blank = String.for_all (function ' ' | '\t' | '\n' | '\r' -> true | _ -> false) s in
      if not blank then items := Qast.Content_text s :: !items
    end
  in
  let rec go () =
    if st.pos >= st.len then fail st (Printf.sprintf "unterminated element <%s>" tag)
    else if looking_at st "</" then begin
      flush ();
      st.pos <- st.pos + 2;
      let closing = name st in
      if closing <> tag then
        fail st (Printf.sprintf "mismatched </%s> for <%s>" closing tag);
      skip_ws st;
      expect st ">"
    end
    else if peek st = '{' then begin
      flush ();
      st.pos <- st.pos + 1;
      let e = parse_expr st in
      skip_ws st;
      expect st "}";
      items := Qast.Content_expr e :: !items;
      go ()
    end
    else if peek st = '<' && is_name_start (peek_at st 1) then begin
      flush ();
      let e = parse_constructor st in
      items := Qast.Content_elem e :: !items;
      go ()
    end
    else begin
      Buffer.add_char text (peek st);
      st.pos <- st.pos + 1;
      go ()
    end
  in
  go ();
  List.rev !items

let parse src =
  let st = { src; len = String.length src; pos = 0 } in
  let e = parse_expr st in
  skip_ws st;
  if st.pos < st.len then fail st "unexpected input after expression";
  e

let error_message src = function
  | Error { pos; msg } ->
      let pos = min pos (String.length src) in
      Some (Printf.sprintf "XQuery syntax error: %s\n%s\n%s^" msg src (String.make pos ' '))
  | _ -> None
