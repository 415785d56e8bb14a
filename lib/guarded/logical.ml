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
   (parent of the shape roots); [Wrapper] the element the render wraps a
   forest in; [Virt] a virtual element instance; [Text] its text; [Tree] a
   node built by the query itself. *)
type node =
  | Doc
  | Wrapper of string
  | Virt of Nav.handle * int
  | Text of string
  | Tree of Xml.Tree.t

(* The instances of [(handle, ids)] runs, from the [i]th of the first
   run on, as one sequence: each item costs its [Virt], one [Seq] cell
   and the closure that resumes after it. *)
let rec virts kids i () =
  match kids with
  | [] -> Seq.Nil
  | (h, ids) :: rest ->
      if i < Array.length ids then Seq.Cons (Virt (h, ids.(i)), fun () -> virts kids (i + 1) ())
      else virts rest 0 ()

(* The navigation signature over the virtual document: each step into a
   virtual element's children runs its closest joins, one per target edge. *)
module Virtual = struct
  type nonrec t = t
  type nonrec node = node

  let document _ = Doc

  (* A virtual element's text precedes its element children, as in
     Render.to_tree; the document node has the render's wrapper as its only
     child when there is one.  Root instances stream from their id arrays,
     so a bounded step over the roots makes nodes for the run it keeps.  An
     instance's children are the joins its test names, computed at once:
     a name joins the edges of the children of that name, [*] every edge
     and text() none. *)
  let children t ~test = function
    | Doc -> (
        let roots = Nav.roots t.nav in
        match Nav.wrapper roots with Some w -> Seq.return (Wrapper w) | None -> virts roots 0)
    | Wrapper _ -> virts (Nav.roots t.nav) 0
    | Virt (h, id) -> (
        match test with
        | Xquery.Qast.Name name -> virts (Nav.element_children t.nav ~name h id) 0
        | Xquery.Qast.Any -> virts (Nav.element_children t.nav h id) 0
        | Xquery.Qast.Text -> (
            match Nav.value t.nav h id with "" -> Seq.empty | value -> Seq.return (Text value)))
    | Text _ -> Seq.empty
    | Tree n -> Seq.map (fun c -> Tree c) (List.to_seq (Xml.Tree.children n))

  let text _ = function
    | Text s | Tree (Xml.Tree.Text s) -> Some s
    | Doc | Wrapper _ | Virt _ | Tree (Xml.Tree.Element _) -> None

  let name _ = function
    | Doc | Text _ -> ""
    | Wrapper w -> w
    | Virt (h, _) -> h.name
    | Tree n -> Xml.Tree.name n

  let attributes t = function
    | Virt (h, id) -> Nav.attributes t.nav h id
    | Tree (Xml.Tree.Element { attrs; _ }) -> attrs
    | Doc | Wrapper _ | Text _ | Tree (Xml.Tree.Text _) -> []

  let string_value t = function
    | Doc | Wrapper _ ->
        String.concat ""
          (List.concat_map
             (fun (h, ids) -> Array.to_list (Array.map (Nav.deep_text t.nav h) ids))
             (Nav.roots t.nav))
    | Virt (h, id) -> Nav.deep_text t.nav h id
    | Text s -> s
    | Tree n -> Xml.Tree.deep_text n

  let of_tree n = Tree n

  let materialize t = function
    | Doc | Wrapper _ ->
        (* Materializing the whole virtual document = the physical render,
           in the query's context. *)
        Xmorph.Interp.render ?ctx:(Nav.ctx t.nav) t.store t.compiled
    | Virt (h, id) -> Nav.materialize t.nav h id
    | Text s -> Xml.Tree.Text s
    | Tree n -> n
end

module Eval = Xquery.Eval.Make (Virtual)

(* One query is one operation: its reads are charged to the context
   handed to it. *)
let query ?ctx t src =
  Xmobs.Ctx.region ctx Xmobs.Layer.logical_query @@ fun () ->
  let t = { t with nav = Nav.charging t.nav ctx } in
  Eval.materialize t (Eval.eval ?ctx t (Xquery.Qparse.parse src))

let query_to_xml ?ctx t src = V.to_trees (query ?ctx t src)
