(* The one execution path: compile, then render or query, with exactly
   one query-log record per call.

   Byte-compatibility contract: [Rendered.body] is precisely what
   [xmorph run] prints, and [Query_result.body] is precisely what
   [xmorph query] prints, because both commands print it.  A transform's
   body is written by one emit walk ([Interp.render_to_buffer]), indented
   or compact + "\n"; its bytes are those of the rendered tree printed by
   [Printer.to_string_indented] or [Printer.to_string].  A query is
   answered in situ by [Guarded.Logical] over the compiled guard, one
   [Printer.to_string] line per result tree; its bytes are those of the
   physical answer ([Guarded_query.run_on_store]).  The serve daemon
   returns these bodies verbatim, so served bytes equal one-shot bytes
   for the same guard and document. *)

let now () = Unix.gettimeofday ()

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

type outcome =
  | Rendered of { body : string; compiled : Xmorph.Interp.t }
  | Query_result of { body : string; compiled : Xmorph.Interp.t }
  | Failed of { kind : Xmobs.Qlog.outcome; message : string }

let io_of_snapshot (s : Store.Io_stats.snapshot) : Xmobs.Qlog.io =
  {
    Xmobs.Qlog.bytes_read = s.Store.Io_stats.bytes_read;
    bytes_written = s.Store.Io_stats.bytes_written;
    blocks_read = s.Store.Io_stats.blocks_read;
    blocks_written = s.Store.Io_stats.blocks_written;
    read_ops = s.Store.Io_stats.read_ops;
    write_ops = s.Store.Io_stats.write_ops;
  }

(* The store's I/O counters as the [store.*] gauges of [r]: six name
   lookups, once per execution or write, never per charge. *)
let store_gauges r store =
  let s = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  let set name v = Xmobs.Metrics.set_gauge ~r name (float_of_int v) in
  set "store.bytes_read" s.Store.Io_stats.bytes_read;
  set "store.bytes_written" s.Store.Io_stats.bytes_written;
  set "store.blocks_read" s.Store.Io_stats.blocks_read;
  set "store.blocks_written" s.Store.Io_stats.blocks_written;
  set "store.read_ops" s.Store.Io_stats.read_ops;
  set "store.write_ops" s.Store.Io_stats.write_ops

let classify = function
  | Xmorph.Interp.Error m -> (Xmobs.Qlog.Parse_error, m)
  | Xmorph.Loss.Rejected r ->
      (Xmobs.Qlog.Type_mismatch, Xmorph.Report.loss_to_string r)
  | Guarded.Guarded_query.Query_failed m -> (Xmobs.Qlog.Parse_error, m)
  | e -> (Xmobs.Qlog.Internal, Printexc.to_string e)

(* Per-request I/O when a request context is installed (exact for this
   request, not polluted by concurrent ones), snapshot-diff otherwise. *)
let io_of_ctx_delta (later : Xmobs.Ctx.io) (earlier : Xmobs.Ctx.io) :
    Xmobs.Qlog.io =
  let br = later.Xmobs.Ctx.bytes_read - earlier.Xmobs.Ctx.bytes_read in
  let bw = later.Xmobs.Ctx.bytes_written - earlier.Xmobs.Ctx.bytes_written in
  {
    Xmobs.Qlog.bytes_read = br;
    bytes_written = bw;
    blocks_read = Xmobs.Ctx.blocks_of br;
    blocks_written = Xmobs.Ctx.blocks_of bw;
    read_ops = later.Xmobs.Ctx.read_ops - earlier.Xmobs.Ctx.read_ops;
    write_ops = later.Xmobs.Ctx.write_ops - earlier.Xmobs.Ctx.write_ops;
  }

(* What a query-log record is measured from: the start time, the trace
   id, and the I/O baseline — the installed request context's counters
   when there is one (exact for this request under concurrency), the
   store-wide snapshot otherwise. *)
type meter = {
  ts : float;
  trace_id : string option;
  ctx_io : (Xmobs.Ctx.t * Xmobs.Ctx.io) option;
  io0 : Store.Io_stats.snapshot;
}

let start ?trace_id store =
  let ctx = Xmobs.Ctx.current () in
  {
    ts = now ();
    trace_id =
      (match trace_id with
      | Some _ -> trace_id
      | None -> Option.bind ctx Xmobs.Ctx.traced_id);
    ctx_io = Option.map (fun c -> (c, Xmobs.Ctx.io c)) ctx;
    io0 = Store.Io_stats.snapshot (Store.Shredded.stats store);
  }

(* One record, two sinks: the caller's query log and the request context
   installed on the calling thread, whose finished record carries it to
   /debug/requests and incident bundles.  The record is built once, only
   when either sink can take it, so the path stays allocation-free when
   both are off. *)
let submit_entry qlog m store ~source ~doc ~guard ~guard_hash ~query_hash
    ~classification ~eval_s ~render_s ~out_nodes ~cached outcome error =
  if Option.is_some qlog || Xmobs.Ctx.active () then begin
    let io =
      match m.ctx_io with
      | Some (ctx, cio0) -> io_of_ctx_delta (Xmobs.Ctx.io ctx) cio0
      | None ->
          io_of_snapshot
            (Store.Io_stats.diff
               (Store.Io_stats.snapshot (Store.Shredded.stats store))
               m.io0)
    in
    let e =
      {
        Xmobs.Qlog.ts = m.ts;
        id = Xmobs.Qlog.next_id ();
        trace_id = m.trace_id;
        source;
        doc;
        guard;
        guard_hash;
        query_hash;
        classification;
        outcome;
        error = Option.map first_line error;
        wall_s = now () -. m.ts;
        eval_s;
        render_s;
        in_nodes = Store.Shredded.node_count store;
        out_nodes;
        io = Some io;
        cached;
        generation = Some (Store.Shredded.generation store);
      }
    in
    Option.iter (fun q -> Xmobs.Qlog.log q e) qlog;
    Xmobs.Ctx.attach_qlog e
  end

let execute ?(sinks = Xmobs.Obs.no_sinks) ~source ?(doc = "")
    ?(enforce = true) ?(compact = false) ?trace_id ?query store guard =
  let m = start ?trace_id store in
  (* Hash once per request: the same FNV-1a digest feeds the query-log
     record (whose guard hash labels the served request's metrics and
     trace), the warehouse submit, and both cache tiers. *)
  let guard_hash = Xmobs.Qlog.hash_text guard in
  let query_hash = Option.map Xmobs.Qlog.hash_text query in
  let eval_s = ref 0.0 in
  let render_s = ref 0.0 in
  let classification = ref None in
  let out_nodes = ref 0 in
  let cached = ref false in
  (* Called once, when the execution ends either way: the store gauges
     and the query-log record. *)
  let submit outcome error =
    Option.iter (fun r -> store_gauges r store) sinks.Xmobs.Obs.metrics;
    submit_entry sinks.Xmobs.Obs.qlog m store ~source ~doc ~guard ~guard_hash
      ~query_hash ~classification:!classification ~eval_s:!eval_s
      ~render_s:!render_s ~out_nodes:!out_nodes ~cached:!cached outcome error
  in
  (* Cache discipline.  Both tiers are bypassed (no lookup, no insert)
     while operator-statistics recording is on or this thread's context
     keeps frames: a plan-cache hit skips the compile frames and a result
     hit skips everything, which would write meaningless near-zero rows
     into the warehouse and profiles. *)
  let keeps_frames = Option.is_some (Xmobs.Ctx.frames ()) in
  let use_cache =
    Xmcache.enabled () && Option.is_none sinks.statdb && not keeps_frames
  in
  let guide = Store.Shredded.guide store in
  let guide_uid = Xml.Dataguide.uid guide in
  let qh = match query_hash with Some h -> h | None -> "" in
  (* Tier-1 consult: compiled plans depend only on the shape (the
     paper's data-independence claim), so they are shared across value
     updates and looked up even when the result tier misses. *)
  let compile_cached () =
    if use_cache then
      match Xmcache.find_plan ~guide_uid ~guard_hash ~enforce with
      | Some compiled -> compiled
      | None ->
          let compiled = Xmorph.Interp.compile ~enforce guide guard in
          Xmcache.add_plan ~guide_uid ~guard_hash ~enforce compiled;
          compiled
    else Xmorph.Interp.compile ~enforce guide guard
  in
  (* Tier-2 key: a body reads the structure, which value updates share,
     and the values of [compiled.reads] alone, so it stays valid until
     one of those types is written. *)
  let generation (compiled : Xmorph.Interp.t) =
    Store.Shredded.generation_of store compiled.reads
  in
  let cache_result compiled ~is_query body =
    if use_cache then
      Xmcache.add_result ~generation:(generation compiled) ~guard_hash
        ~query_hash:qh ~compact ~enforce
        {
          Xmcache.body;
          is_query;
          classification = !classification;
          out_nodes = !out_nodes;
        }
  in
  let compile () =
    let t0 = now () in
    let compiled = compile_cached () in
    eval_s := now () -. t0;
    classification :=
      Some
        (Xmorph.Report.classification_to_string
           compiled.Xmorph.Interp.loss.Xmorph.Report.classification);
    compiled
  in
  let evaluate compiled =
    let buf = Buffer.create 4096 in
    match query with
    | None ->
        let t1 = now () in
        let st =
          Xmorph.Interp.render_to_buffer ~indent:(not compact) store compiled buf
        in
        if compact then Buffer.add_char buf '\n';
        render_s := now () -. t1;
        out_nodes := st.Xmorph.Render.elements;
        Option.iter
          (fun r ->
            Xmobs.Metrics.inc ~r ~by:st.Xmorph.Render.elements "render.elements";
            Xmobs.Metrics.inc ~r ~by:st.Xmorph.Render.bytes "render.bytes")
          sinks.Xmobs.Obs.metrics;
        let body = Buffer.contents buf in
        cache_result compiled ~is_query:false body;
        Rendered { body; compiled }
    | Some q ->
        let t1 = now () in
        let trees =
          Guarded.Guarded_query.protect q (fun () ->
              Guarded.Logical.query_to_xml (Guarded.Logical.of_compiled store compiled) q)
        in
        eval_s := !eval_s +. (now () -. t1);
        let t2 = now () in
        List.iter
          (fun t ->
            out_nodes := !out_nodes + Xml.Tree.count_nodes t;
            Xml.Printer.to_buffer buf t;
            Buffer.add_char buf '\n')
          trees;
        render_s := now () -. t2;
        let body = Buffer.contents buf in
        cache_result compiled ~is_query:true body;
        Query_result { body; compiled }
  in
  (* With the cache on, the plan tier answers first: the compiled guard
     names the types its body reads, which key the result tier.  A hit
     serves the stored body verbatim (the byte-identity contract makes
     it equal to a cold execution against this store). *)
  let run_cached () =
    let compiled = compile () in
    match
      Xmcache.find_result ~generation:(generation compiled) ~guard_hash
        ~query_hash:qh ~compact ~enforce
    with
    | None -> evaluate compiled
    | Some entry ->
        cached := true;
        eval_s := 0.0;
        classification := entry.Xmcache.classification;
        out_nodes := entry.Xmcache.out_nodes;
        if entry.Xmcache.is_query then
          Query_result { body = entry.Xmcache.body; compiled }
        else Rendered { body = entry.Xmcache.body; compiled }
  in
  let run () = evaluate (compile ()) in
  (* Operator-statistics recording (--stats-db): run the execution with
     a fresh frame tree and fold the frames, plus the compiled shape's
     predicted closest-join cardinalities, into the warehouse.  An
     execution whose context already keeps frames (--profile, xmorph
     profile, slow-query capture) is someone else's profile: not
     recorded.  An aborted execution raises out of [Ctx.profiled],
     dropping partial frames that would skew the history. *)
  let run_recorded () =
    match sinks.Xmobs.Obs.statdb with
    | Some db when not keeps_frames ->
        let outcome, frames = Xmobs.Ctx.profiled run in
        let predictions =
          match outcome with
          | Rendered { compiled; _ } | Query_result { compiled; _ } ->
              Xmorph.Interp.predicted_joins (Store.Shredded.guide store)
                compiled
          | Failed _ -> []
        in
        Xmobs.Statdb.record db ~guard_hash ~predictions
          ?metrics:sinks.Xmobs.Obs.metrics frames;
        outcome
    | Some _ | None -> run ()
  in
  match if use_cache then run_cached () else run_recorded () with
  | v ->
      submit Xmobs.Qlog.Ok None;
      v
  | exception e ->
      let kind, message = classify e in
      (match e with
      | Xmorph.Loss.Rejected r ->
          classification :=
            Some
              (Xmorph.Report.classification_to_string
                 r.Xmorph.Report.classification)
      | _ -> ());
      submit kind (Some message);
      Failed { kind; message }
