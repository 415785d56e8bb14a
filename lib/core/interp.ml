type t = {
  source : string;
  ast : Ast.t;
  algebra : Algebra.t;
  shape : Tshape.t;
  labels : Report.label_report;
  loss : Report.loss_report;
  reads : Xml.Type_table.id array;
}

exception Error of string

(* The types whose values an output of [shape] reads: the source of every
   node, RESTRICT patterns included (value filters sit on those nodes),
   and every ORDER-BY key type. *)
let reads (shape : Tshape.t) =
  let acc = ref [] in
  Tshape.iter_all shape (fun n ->
      Option.iter (fun ty -> acc := ty :: !acc) n.source;
      Option.iter (fun (ty, _) -> acc := ty :: !acc) n.sort_key);
  Array.of_list (List.sort_uniq Int.compare !acc)

let compile ?(enforce = true) guide source =
  Xmobs.Ctx.region "compile" ~attrs:[ ("guard", Xmobs.Trace.String source) ]
  @@ fun () ->
  let ast =
    try Parse.guard source
    with e -> (
      match Parse.error_message source e with
      | Some msg -> raise (Error msg)
      | None -> raise e)
  in
  let algebra = Algebra.of_ast ast in
  let sem =
    try Semantics.eval guide algebra
    with Tshape.Error msg -> raise (Error msg)
  in
  let cast = Algebra.cast_mode algebra in
  let loss =
    if enforce then Loss.check ~cast guide sem.shape else Loss.analyze guide sem.shape
  in
  let loss = { loss with Report.warnings = sem.warnings @ loss.Report.warnings } in
  { source; ast; algebra; shape = sem.shape; labels = sem.labels; loss;
    reads = reads sem.shape }

(* Named by [Render.join_name], as the render's closest(a->b) regions
   are, so the warehouse can line predictions up with observations. *)
let predicted_joins guide (t : t) =
  let tt = Xml.Dataguide.types guide in
  List.map
    (fun (pty, cty, card, parents) -> (Render.join_name tt pty cty, card, parents))
    (Render.predicted_edges guide t.shape)

let render store t = Render.to_tree store t.shape

let render_to_buffer ?indent store t buf =
  Render.to_buffer ~wrapper:"result" ?indent store t.shape buf

let transform ?enforce store source =
  let guide = Store.Shredded.guide store in
  let t = compile ?enforce guide source in
  (render store t, t)

let transform_doc ?enforce doc source =
  let store = Store.Shredded.shred doc in
  transform ?enforce store source
