module V = Xquery.Value
module Nav = Xmorph.Render.Nav

type t = {
  nav : Nav.t;
  store : Store.Shredded.t;
  compiled : Xmorph.Interp.t;
}

let of_compiled store compiled =
  { nav = Nav.create store compiled.Xmorph.Interp.shape; store; compiled }

let create ?(enforce = true) store ~guard =
  let compiled = Xmorph.Interp.compile ~enforce (Store.Shredded.guide store) guard in
  of_compiled store compiled

(* Nodes of the virtual document.  [Doc] is the virtual document node
   (parent of the shape roots); [Virt] a virtual element instance; [Text]
   its text; [Tree] a node built by the query itself. *)
type node =
  | Doc
  | Wrapper
      (* the synthetic <result> element the physical renderer wraps a
         multi-instance forest in; mirrored here so paths agree *)
  | Virt of Xmorph.Tshape.node * int
  | Text of string
  | Tree of Xml.Tree.t

let strip_at s =
  if String.length s > 0 && s.[0] = '@' then String.sub s 1 (String.length s - 1)
  else s

let root_instances t =
  List.concat_map
    (fun (tn, ids) -> Array.to_list (Array.map (fun id -> (tn, id)) ids))
    (Nav.roots t.nav)

(* The navigation signature over the virtual document: each step into a
   virtual element's children runs its closest joins, one per target edge. *)
module Virtual = struct
  type nonrec t = t
  type nonrec node = node

  let document _ = Doc

  (* A virtual element's text precedes its element children, as in
     Render.to_tree; the document node has the wrapper as its only child
     when the forest has several instances. *)
  let children t ~text = function
    | Doc -> (
        match root_instances t with
        | [ (tn, id) ] -> [ Virt (tn, id) ]
        | _ -> [ Wrapper ])
    | Wrapper -> List.map (fun (tn, id) -> Virt (tn, id)) (root_instances t)
    | Virt (tn, id) ->
        let kids =
          List.concat_map
            (fun (c, ids) -> Array.to_list (Array.map (fun i -> Virt (c, i)) ids))
            (Nav.element_children t.nav tn id)
        in
        let value = if text then Nav.value t.nav tn id else "" in
        if value = "" then kids else Text value :: kids
    | Text _ -> []
    | Tree n -> List.map (fun c -> Tree c) (Xml.Tree.children n)

  let text _ = function
    | Text s | Tree (Xml.Tree.Text s) -> Some s
    | Doc | Wrapper | Virt _ | Tree (Xml.Tree.Element _) -> None

  let name _ = function
    | Doc | Text _ -> ""
    | Wrapper -> "result"
    | Virt (tn, _) -> strip_at tn.Xmorph.Tshape.out_name
    | Tree n -> Xml.Tree.name n

  let attributes t = function
    | Virt (tn, id) -> Nav.attributes t.nav tn id
    | Tree (Xml.Tree.Element { attrs; _ }) -> attrs
    | Doc | Wrapper | Text _ | Tree (Xml.Tree.Text _) -> []

  let string_value t = function
    | Doc | Wrapper ->
        String.concat ""
          (List.map (fun (tn, id) -> Nav.deep_text t.nav tn id) (root_instances t))
    | Virt (tn, id) -> Nav.deep_text t.nav tn id
    | Text s -> s
    | Tree n -> Xml.Tree.deep_text n

  let of_tree n = Tree n

  let materialize t = function
    | Doc | Wrapper ->
        (* Materializing the whole virtual document = the physical render. *)
        Xmorph.Interp.render t.store t.compiled
    | Virt (tn, id) -> Nav.materialize t.nav tn id
    | Text s -> Xml.Tree.Text s
    | Tree n -> n
end

module Eval = Xquery.Eval.Make (Virtual)

let query t src =
  Xmobs.Profile.op "logical.query" @@ fun () ->
  Eval.materialize t (Eval.eval t (Xquery.Qparse.parse src))

let query_to_xml t src = V.to_trees (query t src)
