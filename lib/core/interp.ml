type t = {
  source : string;
  ast : Ast.t;
  algebra : Algebra.t;
  shape : Tshape.t;
  labels : Report.label_report;
  loss : Report.loss_report;
}

exception Error of string

let compile ?(enforce = true) guide source =
  Xmobs.Obs.phase "compile" ~attrs:[ ("guard", Xmobs.Trace.String source) ]
  @@ fun () ->
  Xmobs.Profile.op "compile" @@ fun () ->
  let ast =
    try Parse.guard source
    with e -> (
      match Parse.error_message source e with
      | Some msg -> raise (Error msg)
      | None -> raise e)
  in
  let algebra = Algebra.of_ast ast in
  let sem =
    Xmobs.Obs.phase "infer" @@ fun () ->
    try Semantics.eval guide algebra
    with Tshape.Error msg -> raise (Error msg)
  in
  let cast = Algebra.cast_mode algebra in
  let loss =
    if enforce then Loss.check ~cast guide sem.shape
    else Loss.analyze ~warnings:sem.warnings guide sem.shape
  in
  let loss = { loss with Report.warnings = sem.warnings @ loss.Report.warnings } in
  { source; ast; algebra; shape = sem.shape; labels = sem.labels; loss }

(* The static half of predicted-vs-actual: walk the sourced edges of the
   compiled target shape and predict, per edge, how many closest pairs the
   render will produce — path cardinality (Def. 6) per parent, scaled by
   the parent's instance count.  Names match the render profiler's
   closest(a->b) frames exactly, so the warehouse can line predictions up
   with observations. *)
let predicted_joins guide (t : t) =
  let tt = Xml.Dataguide.types guide in
  let out = ref [] in
  let rec walk (tn : Tshape.node) =
    (match tn.Tshape.source with
    | None -> ()
    | Some pty ->
        List.iter
          (fun (c : Tshape.node) ->
            match c.Tshape.source with
            | None -> ()
            | Some cty ->
                let name =
                  Printf.sprintf "closest(%s->%s)"
                    (Xml.Type_table.qname tt pty)
                    (Xml.Type_table.qname tt cty)
                in
                let card = Xml.Dataguide.path_card guide pty cty in
                let parents = Xml.Dataguide.instance_count guide pty in
                out := (name, card, parents) :: !out)
          tn.Tshape.children);
    List.iter walk tn.Tshape.children
  in
  List.iter walk t.shape.Tshape.roots;
  List.rev !out

let render store t = Render.to_tree store t.shape

let render_to_buffer store t buf = Render.to_buffer store t.shape buf

let transform ?enforce store source =
  let guide = Store.Shredded.guide store in
  let t = compile ?enforce guide source in
  (render store t, t)

let transform_doc ?enforce doc source =
  let store = Store.Shredded.shred doc in
  transform ?enforce store source
