exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module type NAV = sig
  type t
  type node

  val document : t -> node
  val children : t -> test:Qast.node_test -> node -> node Seq.t
  val text : t -> node -> string option
  val name : t -> node -> string
  val attributes : t -> node -> (string * string) list
  val string_value : t -> node -> string
  val of_tree : Xml.Tree.t -> node
  val materialize : t -> node -> Xml.Tree.t
end

let axis_name = function
  | Qast.Child -> "child"
  | Qast.Descendant -> "descendant"
  | Qast.Attribute -> "attribute"

let test_name = function
  | Qast.Any -> "*"
  | Qast.Name n -> n
  | Qast.Text -> "text()"

(* Profiler frame label per expression node.  Steps carry their axis and
   node test so a profile distinguishes [child::n] from [descendant::n]. *)
let expr_label (e : Qast.expr) =
  match e with
  | Qast.Literal_string _ | Qast.Literal_number _ -> "literal"
  | Qast.Var v -> "$" ^ v
  | Qast.Sequence _ -> "sequence"
  | Qast.Root -> "/"
  | Qast.Context_item -> "."
  | Qast.Step (axis, test, _) | Qast.Path (_, axis, test, _) ->
      "step:" ^ axis_name axis ^ "::" ^ test_name test
  | Qast.Flwor _ -> "flwor"
  | Qast.If _ -> "if"
  | Qast.Or _ -> "or"
  | Qast.And _ -> "and"
  | Qast.Compare _ -> "compare"
  | Qast.Arith _ -> "arith"
  | Qast.Neg _ -> "neg"
  | Qast.Call (f, _) -> f ^ "()"
  | Qast.Element (n, _, _) -> "element(" ^ n ^ ")"
  | Qast.Quantified (Qast.Some_, _, _, _) -> "some"
  | Qast.Quantified (Qast.Every, _, _, _) -> "every"

(* An expression with one value for every item of a step: number literals,
   variables and arithmetic over them.  It names no context item, relative
   path, position() or last(). *)
let rec static (e : Qast.expr) =
  match e with
  | Qast.Literal_number _ | Qast.Var _ -> true
  | Qast.Arith (_, a, b) -> static a && static b
  | Qast.Neg a -> static a
  | _ -> false

(* A predicate that keeps a run of positions fixed before any item is
   seen: [[e]], [position() <= e], [position() < e], [position() = e] and
   their mirrors, with [e] static.  [`Eq] keeps the position equal to the
   value, [`Le] those at most it, [`Lt] those below it. *)
let positional_bound (p : Qast.expr) =
  let position = Qast.Call ("position", []) in
  match p with
  | e when static e -> Some (`Eq, e)
  | Qast.Compare (op, l, e) when l = position && static e -> (
      match op with
      | Qast.Eq -> Some (`Eq, e)
      | Qast.Le -> Some (`Le, e)
      | Qast.Lt -> Some (`Lt, e)
      | _ -> None)
  | Qast.Compare (op, e, r) when r = position && static e -> (
      match op with
      | Qast.Eq -> Some (`Eq, e)
      | Qast.Ge -> Some (`Le, e)
      | Qast.Gt -> Some (`Lt, e)
      | _ -> None)
  | _ -> None

(* The positions 1, 2, ... a bound with value [f] keeps, as the number of
   items to skip and the number to take after them. *)
let window kind f =
  let upto g = if not (g >= 1.) then 0 else if g >= 0x1p62 then max_int else int_of_float g in
  match kind with
  | `Le -> (0, upto f)
  | `Lt -> (0, upto (Float.ceil f -. 1.))
  | `Eq -> if Float.is_integer f && f >= 1. && f < 0x1p62 then (int_of_float f - 1, 1) else (0, 0)

(* XPath's round(): the nearest integer, a half toward positive
   infinity (round(-1.5) is -1); NaN and the infinities stay as they
   are, and so does the sign of a zero result. *)
let xpath_round f =
  if Float.is_integer f || not (Float.is_finite f) then f
  else
    let down = Float.floor f in
    Float.copy_sign (if f >= down +. 0.5 then down +. 1. else down) f

(* Does [sub] occur in [s] at byte offset [i]?  Compared in place. *)
let occurs_at s i sub =
  let m = String.length sub in
  i + m <= String.length s
  &&
  let rec from j = j = m || (String.unsafe_get s (i + j) = String.unsafe_get sub j && from (j + 1)) in
  from 0

module Make (N : NAV) = struct
  type item = N.node Value.item_of

  (* What stays fixed over one evaluation, apart from [env] so that the
     per-item copies of [env] in predicates stay small. *)
  type doc = {
    nav : N.t;
    text : N.node -> string; (* string value of a node *)
    root : N.node; (* the document node, what [/] and [doc()] denote *)
    ctx : Xmobs.Ctx.t option; (* the request context its frames go to *)
  }

  type env = {
    doc : doc;
    vars : (string * item list) list;
    context : item option;
    position : int; (* 1-based position of the context item in its sequence *)
    size : int; (* size of that sequence, for last() *)
  }

  let lookup env v =
    match List.assoc_opt v env.vars with
    | Some x -> x
    | None -> err "unbound variable $%s" v

  let context env =
    match env.context with Some it -> it | None -> Value.Node env.doc.root

  let string_value env it = Value.atomize env.doc.text it
  let to_number env it = Value.number env.doc.text it
  let item_equal env a b = Value.equal env.doc.text a b
  let str_of env = function [] -> "" | it :: _ -> string_value env it

  let materialize nav =
    List.map (function
      | Value.Node n -> Value.Node (N.materialize nav n)
      | Value.Attr (k, v) -> Value.Attr (k, v)
      | Value.Str s -> Value.Str s
      | Value.Num f -> Value.Num f
      | Value.Bool b -> Value.Bool b)

  (* The node as an item if it passes the node test; text atomizes to a
     string. *)
  let select env test n =
    match test with
    | Qast.Name m -> if N.name env.doc.nav n = m then Some (Value.Node n) else None
    | Qast.Any -> (
        match N.text env.doc.nav n with
        | None -> Some (Value.Node n)
        | Some _ -> None)
    | Qast.Text -> (
        match N.text env.doc.nav n with
        | Some s -> Some (Value.Str s)
        | None -> None)

  (* The items the children [s] give a step, in one pass: the node test
     applies inline, the first [skip] items it keeps are dropped, and no
     child is pulled after the [take]th kept. *)
  let[@tail_mod_cons] rec kept env test ~skip ~take s =
    if take = 0 then []
    else
      match s () with
      | Seq.Nil -> []
      | Seq.Cons (c, s) -> (
          match select env test c with
          | None -> kept env test ~skip ~take s
          | Some it ->
              if skip > 0 then kept env test ~skip:(skip - 1) ~take s
              else it :: kept env test ~skip ~take:(take - 1) s)

  (* One context item's child step.  The test goes down with it, so an
     instance that joins its children on demand joins only the edges the
     test names. *)
  let child_step env test ~skip ~take = function
    | Value.Node n -> kept env test ~skip ~take (N.children env.doc.nav ~test n)
    | _ -> []

  (* Preorder, so that results come out in document order.  The walk
     reaches every element below, whatever the test: it asks for every
     element child ([*]).  A text() walk asks for the text children, and
     for the element children as well unless those came with them (a tree
     hands out every child for any test). *)
  let descendant_step env test = function
    | Value.Node n ->
        let nav = env.doc.nav in
        let element c = Option.is_none (N.text nav c) in
        let below n =
          match test with
          | Qast.Text ->
              let kids = N.children nav ~test n in
              if Seq.exists element kids then kids
              else Seq.append kids (Seq.filter element (N.children nav ~test:Qast.Any n))
          | Qast.Name _ | Qast.Any -> N.children nav ~test:Qast.Any n
        in
        let rec go acc kids =
          Seq.fold_left
            (fun acc c ->
              let acc = match select env test c with Some it -> it :: acc | None -> acc in
              go acc (below c))
            acc kids
        in
        List.rev (go [] (below n))
    | _ -> []

  let attribute_step env test = function
    | Value.Node n ->
        List.filter_map
          (fun (k, v) ->
            match test with
            | Qast.Name m when m = k -> Some (Value.Attr (k, v))
            | Qast.Any -> Some (Value.Attr (k, v))
            | _ -> None)
          (N.attributes env.doc.nav n)
    | _ -> []

  (* Profiled wrapper over the expression dispatcher: when the
     evaluation's context keeps no frames it is one branch and a tail
     call; when it does, each expression node is an operator region
     (repeat evaluations inside FLWOR loops aggregate by call count). *)
  let rec eval_expr env (e : Qast.expr) : item list =
    let ctx = env.doc.ctx in
    if not (Xmobs.Ctx.keeps_frames ctx) then eval_expr_desc env e
    else begin
      let op = Xmobs.Ctx.enter ctx (expr_label e) in
      match eval_expr_desc env e with
      | vs ->
          Xmobs.Ctx.exit ~out_count:(List.length vs) ctx op;
          vs
      | exception ex ->
          Xmobs.Ctx.exit ctx op;
          raise ex
    end

  and eval_expr_desc env (e : Qast.expr) : item list =
    match e with
    | Qast.Literal_string s -> [ Value.Str s ]
    | Qast.Literal_number f -> [ Value.Num f ]
    | Qast.Var v -> lookup env v
    | Qast.Sequence es -> List.concat_map (eval_expr env) es
    | Qast.Root -> [ Value.Node env.doc.root ]
    | Qast.Context_item -> [ context env ]
    | Qast.Step (axis, test, preds) ->
        apply_step env [ context env ] axis test preds
    | Qast.Path (e, axis, test, preds) ->
        let base = eval_expr env e in
        apply_step env base axis test preds
    | Qast.Flwor (clauses, where, order, ret) -> eval_flwor env clauses where order ret
    | Qast.If (c, t, e) ->
        if Value.effective_bool (eval_expr env c) then eval_expr env t
        else eval_expr env e
    | Qast.Or (a, b) ->
        [ Value.Bool
            (Value.effective_bool (eval_expr env a)
            || Value.effective_bool (eval_expr env b)) ]
    | Qast.And (a, b) ->
        [ Value.Bool
            (Value.effective_bool (eval_expr env a)
            && Value.effective_bool (eval_expr env b)) ]
    | Qast.Compare (op, a, b) ->
        let va = eval_expr env a and vb = eval_expr env b in
        [ Value.Bool (general_compare env op va vb) ]
    | Qast.Arith (op, a, b) ->
        let to_num e =
          match eval_expr env e with
          | [] -> None
          | it :: _ -> to_number env it
        in
        (match (to_num a, to_num b) with
        | Some x, Some y ->
            let f =
              match op with
              | Qast.Add -> x +. y
              | Qast.Sub -> x -. y
              | Qast.Mul -> x *. y
              | Qast.Div -> x /. y
              | Qast.Mod -> Float.rem x y
            in
            [ Value.Num f ]
        | _ -> [])
    | Qast.Neg e -> (
        match eval_expr env e with
        | [ it ] -> (
            match to_number env it with
            | Some f -> [ Value.Num (-.f) ]
            | None -> err "cannot negate a non-number")
        | _ -> err "cannot negate a sequence")
    | Qast.Call (f, args) -> eval_call env f (List.map (eval_expr env) args)
    | Qast.Element (name, attrs, content) ->
        let attrs =
          List.map
            (fun (k, v) ->
              match v with
              | Qast.Attr_literal s -> (k, s)
              | Qast.Attr_expr e ->
                  let parts = List.map (string_value env) (eval_expr env e) in
                  (k, String.concat " " parts))
            attrs
        in
        let children =
          List.concat_map
            (fun c ->
              match c with
              | Qast.Content_text s -> [ Xml.Tree.Text s ]
              | Qast.Content_elem e | Qast.Content_expr e ->
                  Value.to_trees (materialize env.doc.nav (eval_expr env e)))
            content
        in
        [ Value.Node (N.of_tree (Xml.Tree.Element { name; attrs; children })) ]
    | Qast.Quantified (q, v, e, sat) ->
        let seq = eval_expr env e in
        let check it =
          Value.effective_bool
            (eval_expr { env with vars = (v, [ it ]) :: env.vars } sat)
        in
        let result =
          match q with
          | Qast.Some_ -> List.exists check seq
          | Qast.Every -> List.for_all check seq
        in
        [ Value.Bool result ]

  and apply_step env base axis test preds =
    if Xmobs.Ctx.keeps_frames env.doc.ctx then
      Xmobs.Ctx.add_in env.doc.ctx (List.length base);
    (* A child step whose first predicate is a static positional bound
       pulls only the run the bound keeps.  The bound is evaluated once,
       for the first item; a value other than one number (or an error,
       which the generic path raises only if some item is selected) falls
       back to evaluating the predicate per item. *)
    let bounded =
      match (axis, preds) with
      | Qast.Child, p :: rest -> (
          match positional_bound p with
          | Some (kind, e) ->
              let value =
                lazy
                  (match eval_expr env e with
                  | [ Value.Num f ] -> Some (window kind f)
                  | _ | (exception Error _) -> None)
              in
              Some (value, rest)
          | None -> None)
      | _ -> None
    in
    (* XPath semantics: predicates (and position()/last()) apply within each
       context node's selection, before the per-node results are concatenated. *)
    let select it =
      let (skip, take), preds =
        match bounded with
        | Some (value, rest) -> (
            match Lazy.force value with Some w -> (w, rest) | None -> ((0, max_int), preds))
        | None -> ((0, max_int), preds)
      in
      let selected =
        match axis with
        | Qast.Child -> child_step env test ~skip ~take it
        | Qast.Descendant -> descendant_step env test it
        | Qast.Attribute -> attribute_step env test it
      in
      List.fold_left (fun acc p -> apply_predicate env acc p) selected preds
    in
    match base with [ it ] -> select it | _ -> List.concat_map select base

  and apply_predicate env items p =
    let n = List.length items in
    List.filteri
      (fun i it ->
        let v =
          eval_expr { env with context = Some it; position = i + 1; size = n } p
        in
        match v with
        | [ Value.Num f ] -> f = float_of_int (i + 1)
        | _ -> Value.effective_bool v)
      items

  and eval_flwor env clauses where order ret =
    (* Expand the clauses into the stream of tuple environments, filtered by
       the where clause. *)
    let rec tuples env = function
      | [] ->
          let keep =
            match where with
            | None -> true
            | Some w -> Value.effective_bool (eval_expr env w)
          in
          if keep then [ env ] else []
      | Qast.For (v, e) :: rest ->
          let seq = eval_expr env e in
          List.concat_map
            (fun it -> tuples { env with vars = (v, [ it ]) :: env.vars } rest)
            seq
      | Qast.Let (v, e) :: rest ->
          let value = eval_expr env e in
          tuples { env with vars = (v, value) :: env.vars } rest
    in
    let envs = tuples env clauses in
    let envs =
      match order with
      | [] -> envs
      | specs ->
          (* Decorate with the key tuple, sort stably, undecorate.  Keys
             compare numerically when both sides are numbers, else as
             strings, per spec ordering for untyped data. *)
          let key_of env =
            List.map
              (fun { Qast.key; descending } ->
                let v = eval_expr env key in
                let s = match v with [] -> "" | it :: _ -> string_value env it in
                let num = match v with it :: _ -> to_number env it | [] -> None in
                (s, num, descending))
              specs
          in
          let cmp_one (s1, n1, desc) (s2, n2, _) =
            let c =
              match (n1, n2) with
              | Some x, Some y -> compare x y
              | _ -> compare s1 s2
            in
            if desc then -c else c
          in
          let rec cmp ks1 ks2 =
            match (ks1, ks2) with
            | [], [] -> 0
            | k1 :: r1, k2 :: r2 ->
                let c = cmp_one k1 k2 in
                if c <> 0 then c else cmp r1 r2
            | _ -> 0
          in
          List.stable_sort
            (fun (k1, _) (k2, _) -> cmp k1 k2)
            (List.map (fun e -> (key_of e, e)) envs)
          |> List.map snd
    in
    List.concat_map (fun env -> eval_expr env ret) envs

  and general_compare env op va vb =
    let cmp_items a b =
      match op with
      | Qast.Eq -> item_equal env a b
      | Qast.Neq -> not (item_equal env a b)
      | _ -> (
          match (to_number env a, to_number env b) with
          | Some x, Some y -> (
              match op with
              | Qast.Lt -> x < y
              | Qast.Le -> x <= y
              | Qast.Gt -> x > y
              | Qast.Ge -> x >= y
              | _ -> assert false)
          | _ -> (
              let sa = string_value env a and sb = string_value env b in
              match op with
              | Qast.Lt -> sa < sb
              | Qast.Le -> sa <= sb
              | Qast.Gt -> sa > sb
              | Qast.Ge -> sa >= sb
              | _ -> assert false))
    in
    List.exists (fun a -> List.exists (fun b -> cmp_items a b) vb) va

  and eval_call env fname args =
    let arity n =
      if List.length args <> n then
        err "%s expects %d argument(s), got %d" fname n (List.length args)
    in
    let one () = arity 1; List.hd args in
    match fname with
    | "count" -> [ Value.Num (float_of_int (List.length (one ()))) ]
    | "empty" -> [ Value.Bool (one () = []) ]
    | "exists" -> [ Value.Bool (one () <> []) ]
    | "not" -> [ Value.Bool (not (Value.effective_bool (one ()))) ]
    | "string" -> [ Value.Str (str_of env (one ())) ]
    | "number" -> (
        match one () with
        | it :: _ -> (
            match to_number env it with
            | Some f -> [ Value.Num f ]
            | None -> [ Value.Num Float.nan ])
        | [] -> [ Value.Num Float.nan ])
    | "data" -> List.map (fun it -> Value.Str (string_value env it)) (one ())
    | "distinct-values" ->
        let seen = Hashtbl.create 16 in
        List.filter_map
          (fun it ->
            let s = string_value env it in
            if Hashtbl.mem seen s then None
            else begin
              Hashtbl.add seen s ();
              Some (Value.Str s)
            end)
          (one ())
    | "concat" ->
        [ Value.Str
            (String.concat ""
               (List.map
                  (fun seq -> String.concat "" (List.map (string_value env) seq))
                  args)) ]
    | "contains" ->
        arity 2;
        let s = str_of env (List.nth args 0) and sub = str_of env (List.nth args 1) in
        let rec go i = occurs_at s i sub || (i + String.length sub < String.length s && go (i + 1)) in
        [ Value.Bool (go 0) ]
    | "starts-with" ->
        arity 2;
        let s = str_of env (List.nth args 0) and p = str_of env (List.nth args 1) in
        [ Value.Bool (occurs_at s 0 p) ]
    | "string-length" ->
        [ Value.Num (float_of_int (String.length (str_of env (one ())))) ]
    | "name" -> (
        match one () with
        | Value.Node n :: _ -> [ Value.Str (N.name env.doc.nav n) ]
        | Value.Attr (k, _) :: _ -> [ Value.Str k ]
        | _ -> [ Value.Str "" ])
    | "sum" ->
        [ Value.Num
            (List.fold_left
               (fun acc it ->
                 match to_number env it with Some f -> acc +. f | None -> acc)
               0.0 (one ())) ]
    | "avg" -> (
        match List.filter_map (to_number env) (one ()) with
        | [] -> []
        | nums ->
            [ Value.Num
                (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)) ])
    | "min" | "max" -> (
        let nums = List.filter_map (to_number env) (one ()) in
        match nums with
        | [] -> []
        | x :: rest ->
            let pick = if fname = "min" then min else max in
            [ Value.Num (List.fold_left pick x rest) ])
    | "doc" -> [ Value.Node env.doc.root ]
    | "position" -> arity 0; [ Value.Num (float_of_int env.position) ]
    | "last" -> arity 0; [ Value.Num (float_of_int env.size) ]
    | "true" -> arity 0; [ Value.Bool true ]
    | "false" -> arity 0; [ Value.Bool false ]
    | "boolean" -> [ Value.Bool (Value.effective_bool (one ())) ]
    | "substring" -> (
        if List.length args < 2 || List.length args > 3 then
          err "substring expects 2 or 3 arguments";
        let s = str_of env (List.nth args 0) in
        let fnum seq =
          match seq with
          | it :: _ -> Option.value ~default:Float.nan (to_number env it)
          | [] -> Float.nan
        in
        let start = fnum (List.nth args 1) in
        (* XPath 1.0: the characters at 1-based positions p with
           round(start) <= p < round(start) + round(len), or from
           round(start) on without a length, so a NaN bound keeps none and
           an infinite one sets no limit on its side. *)
        let first = xpath_round start and past_end = float_of_int (String.length s + 1) in
        let from = Float.max 1. first
        and upto =
          if List.length args = 3 then Float.min past_end (first +. xpath_round (fnum (List.nth args 2)))
          else past_end
        in
        if not (from < upto) then [ Value.Str "" ]
        else
          let from = int_of_float from in
          [ Value.Str (String.sub s (from - 1) (int_of_float upto - from)) ])
    | "string-join" ->
        arity 2;
        let sep = str_of env (List.nth args 1) in
        [ Value.Str
            (String.concat sep (List.map (string_value env) (List.nth args 0))) ]
    | "normalize-space" ->
        let words =
          List.filter (fun w -> w <> "")
            (String.split_on_char ' '
               (String.map
                  (function '\t' | '\n' | '\r' -> ' ' | c -> c)
                  (str_of env (one ()))))
        in
        [ Value.Str (String.concat " " words) ]
    | "upper-case" -> [ Value.Str (String.uppercase_ascii (str_of env (one ()))) ]
    | "lower-case" -> [ Value.Str (String.lowercase_ascii (str_of env (one ()))) ]
    | "floor" | "ceiling" | "round" | "abs" -> (
        match one () with
        | [] -> []
        | it :: _ -> (
            match to_number env it with
            | None -> [ Value.Num Float.nan ]
            | Some f ->
                let g =
                  match fname with
                  | "floor" -> Float.floor f
                  | "ceiling" -> Float.ceil f
                  | "round" -> xpath_round f
                  | _ -> Float.abs f
                in
                [ Value.Num g ]))
    | other -> err "unknown function %s()" other

  let eval nav e =
    let root = N.document nav in
    let env =
      { doc =
          { nav; text = N.string_value nav; root; ctx = Xmobs.Ctx.current () };
        vars = [];
        context = None; position = 1; size = 1 }
    in
    eval_expr env e
end

(* The physical instance: a plain tree, whose document node is an unnamed
   element wrapping the root so that [/data] selects the root element as in
   XPath. *)
module Tree = struct
  type t = Xml.Tree.t
  type node = Xml.Tree.t

  let document doc = doc

  let children _ ~test:_ = function
    | Xml.Tree.Element { children; _ } -> List.to_seq children
    | Xml.Tree.Text _ -> Seq.empty

  let text _ = function
    | Xml.Tree.Text s -> Some s
    | Xml.Tree.Element _ -> None

  let name _ = function
    | Xml.Tree.Element { name; _ } -> name
    | Xml.Tree.Text _ -> ""

  let attributes _ = function
    | Xml.Tree.Element { attrs; _ } -> attrs
    | Xml.Tree.Text _ -> []

  let string_value _ n = Xml.Tree.deep_text n
  let of_tree n = n
  let materialize _ n = n
end

module Physical = Make (Tree)

let eval root e =
  Xmobs.Ctx.region "xquery.eval" @@ fun () ->
  Physical.eval (Xml.Tree.Element { name = ""; attrs = []; children = [ root ] }) e

let run root src = eval root (Qparse.parse src)

let run_to_xml root src = Value.to_trees (run root src)
