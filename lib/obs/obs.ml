(* The pipeline's one-liner for a layer span, and the on-disk sinks a
   command or daemon owns.

   [phase name f] opens a span [name] around [f] in the calling thread's
   request context (Ctx) when one is installed — so concurrent serve
   requests get disjoint span trees, and [--trace] gets the command's
   own.  With no context installed anywhere it is one atomic load and a
   tail call — no allocation — so always-on instrumentation does not
   move Fig. 10's timings. *)

let phase ?attrs name f =
  if not (Ctx.active ()) then f ()
  else
    match Ctx.current () with
    | Some ctx -> Ctx.with_span ?attrs ctx name f
    | None -> f ()

type sinks = { qlog : Qlog.t option; statdb : Statdb.t option }

let no_sinks = { qlog = None; statdb = None }
