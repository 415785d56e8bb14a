exception Error of { pos : int; msg : string }

type state = { toks : (Lexer.token * int) array; mutable cur : int }

let peek st = fst st.toks.(st.cur)
let pos st = snd st.toks.(st.cur)
let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let fail st msg = raise (Error { pos = pos st; msg })

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string (peek st)))

let ident st =
  match peek st with
  | Lexer.IDENT s -> advance st; s
  | other -> fail st (Printf.sprintf "expected a label but found %s" (Lexer.token_to_string other))

let starts_item = function
  | Lexer.IDENT _ | Lexer.BANG | Lexer.STAR | Lexer.DBL_STAR | Lexer.LPAREN
  | Lexer.DROP | Lexer.CLONE | Lexer.NEW | Lexer.RESTRICT | Lexer.CHILDREN
  | Lexer.DESCENDANTS ->
      true
  | _ -> false

let rec parse_item st =
  let prim = parse_prim st in
  let prim =
    if peek st = Lexer.EQUALS then begin
      advance st;
      match peek st with
      | Lexer.STRING v -> advance st; Ast.Value_eq (prim, v)
      | other ->
          fail st
            (Printf.sprintf "expected a quoted string after = but found %s"
               (Lexer.token_to_string other))
    end
    else prim
  in
  let item =
    if peek st = Lexer.LBRACKET then begin
      advance st;
      let items = parse_items st in
      expect st Lexer.RBRACKET;
      (* [label [*]] and [label [**]] are sugar for CHILDREN / DESCENDANTS
         when the star is the only item; a star among other items keeps its
         item-level meaning inside the Tree. *)
      match items with
      | [ Ast.Star ] -> Ast.Children prim
      | [ Ast.Dbl_star ] -> Ast.Descendants prim
      | _ -> Ast.Tree (prim, items)
    end
    else prim
  in
  if peek st = Lexer.ORDER_BY then begin
    advance st;
    let key = ident st in
    let desc = peek st = Lexer.IDENT "desc" in
    if desc then advance st;
    Ast.Order_by (item, key, desc)
  end
  else item

and parse_items st =
  if starts_item (peek st) then
    let item = parse_item st in
    item :: parse_items st
  else []

and parse_special st =
  match peek st with
  | Lexer.DROP -> advance st; Ast.Drop (parse_item st)
  | Lexer.CLONE -> advance st; Ast.Clone (parse_item st)
  | Lexer.NEW -> advance st; Ast.New (ident st)
  | Lexer.RESTRICT -> advance st; Ast.Restrict (parse_item st)
  | Lexer.CHILDREN -> advance st; Ast.Children (parse_item st)
  | Lexer.DESCENDANTS -> advance st; Ast.Descendants (parse_item st)
  | other ->
      fail st (Printf.sprintf "expected a shape operator but found %s" (Lexer.token_to_string other))

and parse_prim st =
  match peek st with
  | Lexer.BANG ->
      advance st;
      let l = ident st in
      Ast.Label { label = l; bang = true }
  | Lexer.IDENT l -> advance st; Ast.Label { label = l; bang = false }
  | Lexer.STAR -> advance st; Ast.Star
  | Lexer.DBL_STAR -> advance st; Ast.Dbl_star
  | Lexer.DROP | Lexer.CLONE | Lexer.NEW | Lexer.RESTRICT | Lexer.CHILDREN
  | Lexer.DESCENDANTS ->
      parse_special st
  | Lexer.LPAREN ->
      advance st;
      let inner =
        match peek st with
        | Lexer.DROP | Lexer.CLONE | Lexer.NEW | Lexer.RESTRICT | Lexer.CHILDREN
        | Lexer.DESCENDANTS ->
            parse_special st
        | _ -> parse_item st
      in
      expect st Lexer.RPAREN;
      inner
  | other -> fail st (Printf.sprintf "expected a pattern but found %s" (Lexer.token_to_string other))

let parse_shape st =
  let items = parse_items st in
  if items = [] then fail st "expected a shape";
  items

(* After a comma, another rename pair looks like: IDENT '->'. *)
let rename_follows st =
  peek st = Lexer.COMMA
  && st.cur + 2 < Array.length st.toks
  && (match fst st.toks.(st.cur + 1) with Lexer.IDENT _ -> true | _ -> false)
  && fst st.toks.(st.cur + 2) = Lexer.ARROW

let parse_renames st =
  let rec go acc =
    let a = ident st in
    expect st Lexer.ARROW;
    let b = ident st in
    let acc = (a, b) :: acc in
    if rename_follows st then (advance st; go acc) else List.rev acc
  in
  go []

let rec parse_guard st =
  let first = parse_unit st in
  let rec pipes acc =
    if peek st = Lexer.PIPE then begin
      advance st;
      let next = parse_unit st in
      pipes (Ast.Compose (acc, next))
    end
    else acc
  in
  pipes first

and parse_unit st =
  match peek st with
  | Lexer.CAST -> advance st; Ast.Cast (Ast.Cast_weak, parse_unit st)
  | Lexer.CAST_NARROWING -> advance st; Ast.Cast (Ast.Cast_narrowing, parse_unit st)
  | Lexer.CAST_WIDENING -> advance st; Ast.Cast (Ast.Cast_widening, parse_unit st)
  | Lexer.TYPE_FILL -> advance st; Ast.Type_fill (parse_unit st)
  | Lexer.COMPOSE ->
      advance st;
      let first = parse_guard st in
      let rec args acc =
        if peek st = Lexer.COMMA then begin
          advance st;
          let next = parse_guard st in
          args (Ast.Compose (acc, next))
        end
        else acc
      in
      let g = args first in
      (match g with
      | Ast.Compose _ -> g
      | _ -> fail st "COMPOSE needs at least two comma-separated guards")
  | Lexer.LPAREN ->
      advance st;
      let g = parse_guard st in
      expect st Lexer.RPAREN;
      g
  | Lexer.MORPH -> advance st; Ast.Stage (Ast.Morph (parse_shape st))
  | Lexer.MUTATE -> advance st; Ast.Stage (Ast.Mutate (parse_shape st))
  | Lexer.TRANSLATE -> advance st; Ast.Stage (Ast.Translate (parse_renames st))
  | other ->
      fail st
        (Printf.sprintf "expected MORPH, MUTATE, TRANSLATE, COMPOSE or a cast but found %s"
           (Lexer.token_to_string other))

let guard ?ctx src =
  Xmobs.Ctx.region ctx Xmobs.Layer.parse @@ fun () ->
  let toks = Array.of_list (Lexer.tokenize ?ctx src) in
  let st = { toks; cur = 0 } in
  let g = parse_guard st in
  (match peek st with
  | Lexer.EOF -> ()
  | other -> fail st (Printf.sprintf "unexpected %s after guard" (Lexer.token_to_string other)));
  g

let caret src pos msg =
  let pos = min pos (String.length src) in
  Printf.sprintf "%s\n%s\n%s^" msg src (String.make pos ' ')

let error_message src = function
  | Error { pos; msg } -> Some (caret src pos ("guard syntax error: " ^ msg))
  | Lexer.Error { pos; msg } -> Some (caret src pos ("guard lexical error: " ^ msg))
  | _ -> None
