type t = { desc : desc; mutable inferred : Xml.Type_table.id list }

and desc =
  | Compose of t * t
  | Morph of t list
  | Mutate of t list
  | Translate of (string * string) list
  | Type_sel of { label : string; bang : bool }
  | Closest of t * t list
  | Star_children
  | Star_descendants
  | Children_of of t
  | Descendants_of of t
  | Drop of t
  | Clone of t
  | New_label of string
  | Restrict of t
  | Value_eq of t * string
  | Order_by of t * string * bool
  | Cast of Ast.cast * t
  | Type_fill of t

let mk desc = { desc; inferred = [] }

let rec of_pattern (p : Ast.pattern) =
  match p with
  | Ast.Label { label; bang } -> mk (Type_sel { label; bang })
  | Ast.Tree (p0, items) -> mk (Closest (of_pattern p0, List.map of_pattern items))
  | Ast.Star -> mk Star_children
  | Ast.Dbl_star -> mk Star_descendants
  | Ast.Children p -> mk (Children_of (of_pattern p))
  | Ast.Descendants p -> mk (Descendants_of (of_pattern p))
  | Ast.Drop p -> mk (Drop (of_pattern p))
  | Ast.Clone p -> mk (Clone (of_pattern p))
  | Ast.New l -> mk (New_label l)
  | Ast.Restrict p -> mk (Restrict (of_pattern p))
  | Ast.Value_eq (p, v) -> mk (Value_eq (of_pattern p, v))
  | Ast.Order_by (p, k, desc) -> mk (Order_by (of_pattern p, k, desc))

let rec of_ast (g : Ast.t) =
  match g with
  | Ast.Stage (Ast.Morph ps) -> mk (Morph (List.map of_pattern ps))
  | Ast.Stage (Ast.Mutate ps) -> mk (Mutate (List.map of_pattern ps))
  | Ast.Stage (Ast.Translate rs) -> mk (Translate rs)
  | Ast.Compose (a, b) -> mk (Compose (of_ast a, of_ast b))
  | Ast.Cast (c, g) -> mk (Cast (c, of_ast g))
  | Ast.Type_fill g -> mk (Type_fill (of_ast g))

(* One label per operator, shared between [pp] and the profiler so profile
   trees read exactly like Fig. 9 plans. *)
let op_name n =
  match n.desc with
  | Compose _ -> "compose"
  | Morph _ -> "morph"
  | Mutate _ -> "mutate"
  | Translate rs ->
      Printf.sprintf "translate {%s}"
        (String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) rs))
  | Type_sel { label; bang } ->
      Printf.sprintf "type(%s%s)" (if bang then "!" else "") label
  | Closest _ -> "closest"
  | Star_children -> "children(*)"
  | Star_descendants -> "descendants(**)"
  | Children_of _ -> "children"
  | Descendants_of _ -> "descendants"
  | Drop _ -> "drop"
  | Clone _ -> "clone"
  | New_label l -> Printf.sprintf "new(%s)" l
  | Restrict _ -> "restrict"
  | Value_eq (_, v) -> Printf.sprintf "value(= %S)" v
  | Order_by (_, k, desc) ->
      Printf.sprintf "order-by(%s%s)" k (if desc then " desc" else "")
  | Cast (Ast.Cast_weak, _) -> "cast"
  | Cast (Ast.Cast_narrowing, _) -> "cast-narrowing"
  | Cast (Ast.Cast_widening, _) -> "cast-widening"
  | Type_fill _ -> "type-fill"

let pp_annotated ~annot fmt t =
  let rec go indent n =
    Format.fprintf fmt "%s%s%s@." indent (op_name n) (annot n);
    let sub = indent ^ "  " in
    match n.desc with
    | Compose (a, b) -> go sub a; go sub b
    | Morph items | Mutate items -> List.iter (go sub) items
    | Closest (p, items) -> go sub p; List.iter (go sub) items
    | Children_of p | Descendants_of p | Drop p | Clone p | Restrict p
    | Value_eq (p, _) | Order_by (p, _, _) | Cast (_, p) | Type_fill p ->
        go sub p
    | Translate _ | Type_sel _ | Star_children | Star_descendants
    | New_label _ ->
        ()
  in
  go "" t

let pp fmt t =
  let types_suffix n =
    match n.inferred with
    | [] -> ""
    | tys -> Printf.sprintf "  {types: %s}" (String.concat "," (List.map string_of_int tys))
  in
  pp_annotated ~annot:types_suffix fmt t

let to_string t = Format.asprintf "%a" pp t

let rec cast_mode t =
  match t.desc with
  | Cast (c, _) -> Some c
  | Type_fill g -> cast_mode g
  | _ -> None

let rec has_type_fill t =
  match t.desc with
  | Type_fill _ -> true
  | Cast (_, g) -> has_type_fill g
  | Compose (a, b) -> has_type_fill a || has_type_fill b
  | _ -> false
