module Render = Xmorph.Render
module Tshape = Xmorph.Tshape

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* Path components (Type_table spelling, so attributes are "@a") from the
   ancestor type at depth [from_depth] (exclusive) down to [ty]. *)
let rel_components tt ty ~from_depth =
  let rec go ty acc =
    if Xml.Type_table.depth tt ty <= from_depth then acc
    else
      match Xml.Type_table.parent tt ty with
      | None -> Xml.Type_table.component tt ty :: acc
      | Some p -> go p (Xml.Type_table.component tt ty :: acc)
  in
  go ty []

type gctx = {
  guide : Xml.Dataguide.t;
  tt : Xml.Type_table.t;
  mutable counter : int;
  (* bindings along the current node's source path: depth -> variable *)
  mutable bindings : (int * string) list;
}

let fresh g =
  g.counter <- g.counter + 1;
  Printf.sprintf "v%d" g.counter

let source_of (tn : Tshape.node) =
  match tn.source with
  | Some s -> s
  | None -> unsupported "NEW/TYPE-FILL types cannot be rendered as an XQuery view"

(* The variable chain iterating from [anchor_var] down [comps], returning
   (for-clauses text, innermost variable, bindings for the new depths). *)
let chain g anchor_var comps ~start_depth =
  let clauses = Buffer.create 32 in
  let var = ref anchor_var in
  let binds = ref [] in
  List.iteri
    (fun i comp ->
      let v = fresh g in
      Buffer.add_string clauses
        (Printf.sprintf "for $%s in $%s/%s " v !var comp);
      var := v;
      binds := (start_depth + i + 1, v) :: !binds)
    comps;
  (Buffer.contents clauses, !var, List.rev !binds)

(* An instance's own text, as the render writes it: an element's text
   children, an attribute's value. *)
let text_of g var ty =
  if Xml.Type_table.is_attribute g.tt ty then Printf.sprintf "string($%s)" var
  else Printf.sprintf "$%s/text()" var

(* A RESTRICT child as a pure existence path.  Its closest instances are
   the restricted instance's descendants only when its type descends from
   the restricted type; a value filter or a nested pattern would need node
   identity. *)
let restrict_condition g parent_var parent_src (rn : Tshape.node) =
  let src = source_of rn in
  let d = Xml.Type_table.depth g.tt parent_src in
  if Xml.Type_table.lca_depth g.tt parent_src src < d then
    unsupported "RESTRICT across non-descendant types in an XQuery view";
  if rn.value_filter <> None || rn.restrict_children <> [] || rn.children <> [] then
    unsupported "a RESTRICT pattern with a value filter or nested types in an XQuery view";
  Printf.sprintf "exists($%s%s)" parent_var
    (String.concat "" (List.map (( ^ ) "/") (rel_components g.tt src ~from_depth:d)))

let conditions g var (tn : Tshape.node) =
  let src = source_of tn in
  let value_cond =
    match tn.value_filter with
    | Some v ->
        if String.contains v '"' then
          unsupported "the value filter %S holds a quote" v;
        [ Printf.sprintf "concat(%s) = \"%s\"" (text_of g var src) v ]
    | None -> []
  in
  match value_cond @ List.map (restrict_condition g var src) tn.restrict_children with
  | [] -> ""
  | cs -> Printf.sprintf "where %s " (String.concat " and " cs)

(* The element a handle renders to, for the instance bound to [var].  Names
   and the attribute-or-element choice are the render's ({!Render.handle}). *)
let rec element_text g var (h : Render.handle) =
  let tn = h.node in
  if tn.clone then unsupported "CLONE types cannot be rendered as an XQuery view";
  let src = source_of tn in
  if tn.sort_key <> None then
    unsupported "%s is sorted by ORDER-BY" (Xml.Type_table.qname g.tt src);
  let attrs, elems = List.partition (fun (c : Render.handle) -> c.attr) h.below in
  let attr_text (c : Render.handle) =
    let s = source_of c.node in
    (* A constructor writes the attribute for every instance.  The render
       writes it where an instance has exactly one closest one: for every
       instance only when it is a mandatory attribute of the instance
       itself, kept whole. *)
    if Xml.Type_table.parent g.tt s <> Some src
       || (Xml.Dataguide.card g.guide s).Xmutil.Card.lo < 1
       || c.node.value_filter <> None || c.node.restrict_children <> []
    then
      unsupported "%s is not a mandatory attribute of %s, kept whole"
        (Xml.Type_table.qname g.tt s) (Xml.Type_table.qname g.tt src);
    Printf.sprintf " %s=\"{$%s/%s}\"" c.name var (Xml.Type_table.component g.tt s)
  in
  Printf.sprintf "<%s%s>{%s}%s</%s>" h.name
    (String.concat "" (List.map attr_text attrs))
    (text_of g var src)
    (String.concat "" (List.map (child_text g var src) elems))
    h.name

and child_text g parent_var parent_src (c : Render.handle) =
  let tt = g.tt in
  let src = source_of c.node in
  let l = Xml.Type_table.lca_depth tt parent_src src in
  let saved = g.bindings in
  let anchor_var, start_depth =
    if l >= Xml.Type_table.depth tt parent_src then (parent_var, Xml.Type_table.depth tt parent_src)
    else begin
      (* Correlating through the least common ancestor type finds the
         closest pairs when the data realizes that ancestor (Def. 2): some
         instance of it holds both types.  It does when every instance
         holds one of them, since some instance holds the other. *)
      if (Xml.Dataguide.path_card g.guide src parent_src).Xmutil.Card.lo < 1
         && (Xml.Dataguide.path_card g.guide parent_src src).Xmutil.Card.lo < 1
      then
        unsupported
          "the closest join of %s and %s may run above their common ancestor type"
          (Xml.Type_table.qname tt parent_src) (Xml.Type_table.qname tt src);
      match List.assoc_opt l g.bindings with
      | Some v -> (v, l)
      | None ->
          unsupported
            "no binding for the least common ancestor of %s (the source \
             path was not iterated stepwise)"
            (Xml.Type_table.qname tt src)
    end
  in
  let comps = rel_components tt src ~from_depth:start_depth in
  let filtered = c.node.value_filter <> None || c.node.restrict_children <> [] in
  if comps = [] && not filtered then
    (* The child is (an ancestor of) the parent: exactly one instance. *)
    element_text g anchor_var c
  else begin
    (* A filtered ancestor is bound once more, under its filters. *)
    let clauses, inner_var, binds =
      if comps = [] then
        let v = fresh g in
        (Printf.sprintf "for $%s in $%s " v anchor_var, v, [])
      else chain g anchor_var comps ~start_depth
    in
    (* Extend the binding environment for this child's subtree: its own
       path's deeper depths shadow the parent's. *)
    g.bindings <- binds @ List.filter (fun (d, _) -> d <= start_depth) g.bindings;
    let conds = conditions g inner_var c.node in
    let body = element_text g inner_var c in
    g.bindings <- saved;
    Printf.sprintf "{%s%sreturn %s}" clauses conds body
  end

let generate guide (shape : Tshape.t) =
  let tt = Xml.Dataguide.types guide in
  let g = { guide; tt; counter = 0; bindings = [] } in
  let root_query (h : Render.handle) =
    match rel_components tt (source_of h.node) ~from_depth:0 with
    | [] -> unsupported "empty source path"
    | first :: rest ->
        let v0 = fresh g in
        let clauses0 = Printf.sprintf "for $%s in /%s " v0 first in
        let clauses, var, binds = chain g v0 rest ~start_depth:1 in
        g.bindings <- (1, v0) :: binds;
        let conds = conditions g var h.node in
        let q = Printf.sprintf "%s%s%sreturn %s" clauses0 clauses conds (element_text g var h) in
        g.bindings <- [];
        q
  in
  match Render.handles tt shape with
  | [] -> unsupported "empty target shape"
  | [ r ] -> root_query r
  | rs -> "(" ^ String.concat ", " (List.map root_query rs) ^ ")"

let generate_guard ?ctx ?(enforce = false) guide guard =
  let compiled = Xmorph.Interp.compile ?ctx ~enforce guide guard in
  generate guide compiled.Xmorph.Interp.shape

let eval ?ctx tree view =
  let trees = Xquery.Value.to_trees (Xquery.Eval.run ?ctx tree view) in
  match Render.wrap (List.length trees) with
  | None -> List.hd trees
  | Some name -> Xml.Tree.Element { name; attrs = []; children = trees }

let run_view ?ctx doc guard =
  eval ?ctx (Xml.Doc.to_tree doc) (generate_guard ?ctx (Xml.Dataguide.of_doc doc) guard)
