type node = {
  label : string;
  mutable children : node list;
  mutable star : bool; (* a [*] wildcard step was applied here *)
}

type pos = Root_pos | Node_pos of node | Unknown

type acc = { mutable roots : node list }

let find_or_create list label =
  match List.find_opt (fun n -> n.label = label) list with
  | Some n -> Some n
  | None -> None

let child_of acc pos label =
  match pos with
  | Unknown -> Unknown
  | Root_pos -> (
      match find_or_create acc.roots label with
      | Some n -> Node_pos n
      | None ->
          let n = { label; children = []; star = false } in
          acc.roots <- acc.roots @ [ n ];
          Node_pos n)
  | Node_pos p -> (
      match find_or_create p.children label with
      | Some n -> Node_pos n
      | None ->
          let n = { label; children = []; star = false } in
          p.children <- p.children @ [ n ];
          Node_pos n)

let apply_step acc pos (axis : Xquery.Qast.axis) (test : Xquery.Qast.node_test) =
  match test with
  | Xquery.Qast.Name n ->
      let label = match axis with Xquery.Qast.Attribute -> "@" ^ n | _ -> n in
      child_of acc pos label
  | Xquery.Qast.Any ->
      (match pos with Node_pos p -> p.star <- true | Root_pos | Unknown -> ());
      Unknown
  | Xquery.Qast.Text -> Unknown

(* Walk an expression; [env] maps variables to positions, [ctx] is the
   context-item position.  Returns the position of the expression's value
   when it denotes nodes. *)
let rec walk acc env ctx (e : Xquery.Qast.expr) : pos =
  match e with
  | Xquery.Qast.Literal_string _ | Xquery.Qast.Literal_number _ -> Unknown
  | Xquery.Qast.Var v -> Option.value ~default:Unknown (List.assoc_opt v env)
  | Xquery.Qast.Root -> Root_pos
  | Xquery.Qast.Context_item -> ctx
  | Xquery.Qast.Sequence es ->
      List.iter (fun e -> ignore (walk acc env ctx e)) es;
      Unknown
  | Xquery.Qast.Step (axis, test, preds) ->
      let p = apply_step acc ctx axis test in
      List.iter (fun pred -> ignore (walk acc env p pred)) preds;
      p
  | Xquery.Qast.Path (base, axis, test, preds) ->
      let b = walk acc env ctx base in
      let p = apply_step acc b axis test in
      List.iter (fun pred -> ignore (walk acc env p pred)) preds;
      p
  | Xquery.Qast.Flwor (clauses, where, order, ret) ->
      let env =
        List.fold_left
          (fun env clause ->
            match clause with
            | Xquery.Qast.For (v, e) | Xquery.Qast.Let (v, e) -> (v, walk acc env ctx e) :: env)
          env clauses
      in
      (match where with Some w -> ignore (walk acc env ctx w) | None -> ());
      List.iter
        (fun { Xquery.Qast.key; _ } -> ignore (walk acc env ctx key))
        order;
      walk acc env ctx ret
  | Xquery.Qast.If (c, t, e) ->
      ignore (walk acc env ctx c);
      ignore (walk acc env ctx t);
      walk acc env ctx e
  | Xquery.Qast.Or (a, b) | Xquery.Qast.And (a, b) | Xquery.Qast.Arith (_, a, b) | Xquery.Qast.Compare (_, a, b) ->
      ignore (walk acc env ctx a);
      ignore (walk acc env ctx b);
      Unknown
  | Xquery.Qast.Neg e -> walk acc env ctx e
  | Xquery.Qast.Call (_, args) ->
      List.iter (fun a -> ignore (walk acc env ctx a)) args;
      Unknown
  | Xquery.Qast.Element (_, attrs, content) ->
      List.iter
        (fun (_, v) ->
          match v with
          | Xquery.Qast.Attr_expr e -> ignore (walk acc env ctx e)
          | Xquery.Qast.Attr_literal _ -> ())
        attrs;
      List.iter
        (fun c ->
          match c with
          | Xquery.Qast.Content_expr e | Xquery.Qast.Content_elem e -> ignore (walk acc env ctx e)
          | Xquery.Qast.Content_text _ -> ())
        content;
      Unknown
  | Xquery.Qast.Quantified (_, v, e, sat) ->
      let p = walk acc env ctx e in
      ignore (walk acc ((v, p) :: env) ctx sat);
      Unknown

let rec pattern_of_node n : Xmorph.Ast.pattern =
  let base = Xmorph.Ast.Label { label = n.label; bang = false } in
  let items =
    (if n.star then [ Xmorph.Ast.Star ] else []) @ List.map pattern_of_node n.children
  in
  match items with
  | [] -> base
  | [ Xmorph.Ast.Star ] -> Xmorph.Ast.Children base
  | _ -> Xmorph.Ast.Tree (base, items)

let infer e =
  let acc = { roots = [] } in
  (* The initial context item is the document node, as in evaluation. *)
  ignore (walk acc [] Root_pos e);
  List.map pattern_of_node acc.roots

let guard_of_query ?ctx src =
  Xmobs.Ctx.region ctx Xmobs.Layer.guard_infer @@ fun () ->
  let patterns = infer (Xquery.Qparse.parse src) in
  if patterns = [] then
    failwith "cannot infer a guard: the query never navigates the document";
  Xmorph.Ast.to_string (Xmorph.Ast.Stage (Xmorph.Ast.Morph patterns))

let run_inferred ?ctx ?enforce ?(cast = true) doc query =
  let guard = guard_of_query ?ctx query in
  (* An inferred guard reflects what the query navigates, not a shape the
     user vouched for: reshaping (a) book collection under its authors
     rightly duplicates shared books, which strict enforcement would reject.
     By default wrap the guard in a CAST — the loss report is still computed
     and returned for inspection. *)
  let guard = if cast then "CAST (" ^ guard ^ ")" else guard in
  Guarded_query.run ?ctx ?enforce doc { Guarded_query.guard; query }
