type t = { guard : string; query : string }

type outcome = {
  transformed : Xml.Tree.t;
  result : Xquery.Value.t;
  result_xml : Xml.Tree.t list;
  compiled : Xmorph.Interp.t;
}

exception Guard_rejected of Xmorph.Report.loss_report

exception Query_failed of string

let protect query f =
  try f () with
  | Xquery.Eval.Error msg -> raise (Query_failed msg)
  | Xquery.Qparse.Error _ as e ->
      raise (Query_failed (Option.get (Xquery.Qparse.error_message query e)))

let run_on_store ?ctx ?enforce store gq =
  let transformed, compiled =
    Xmobs.Ctx.region ctx Xmobs.Layer.guard_transform @@ fun () ->
    try Xmorph.Interp.transform ?ctx ?enforce store gq.guard
    with Xmorph.Loss.Rejected r -> raise (Guard_rejected r)
  in
  let result = protect gq.query (fun () -> Xquery.Eval.run ?ctx transformed gq.query) in
  { transformed; result; result_xml = Xquery.Value.to_trees result; compiled }

let run ?ctx ?enforce doc gq = run_on_store ?ctx ?enforce (Store.Shredded.shred ?ctx doc) gq

let query_unguarded doc query = Xquery.Eval.run (Xml.Doc.to_tree doc) query
