(* The shared execution path: compile + render (+ optional query), with
   exactly one query-log record per call.

   Byte-compatibility contract: [Rendered.body] is precisely what
   [xmorph run] prints (Printer.to_string_indented, or to_string + "\n"
   under ~compact), and [Query_result.body] is precisely what
   [xmorph query] prints (one to_string line per result tree).  The serve
   daemon returns these bodies verbatim, so served bytes equal one-shot
   bytes for the same guard and document. *)

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

(* Local exception so query-phase failures carry their rendered message
   through the common classification below. *)
exception Query_error of string

let classify = function
  | Xmorph.Interp.Error m -> (Xmobs.Qlog.Parse_error, m)
  | Xmorph.Loss.Rejected r ->
      (Xmobs.Qlog.Type_mismatch, Xmorph.Report.loss_to_string r)
  | Query_error m -> (Xmobs.Qlog.Parse_error, m)
  | Xquery.Eval.Error m -> (Xmobs.Qlog.Parse_error, m)
  | Xquery.Qparse.Error _ as e -> (Xmobs.Qlog.Parse_error, Printexc.to_string e)
  | Guarded.Guarded_query.Query_failed m -> (Xmobs.Qlog.Parse_error, m)
  | Guarded.Guarded_query.Guard_rejected r ->
      (Xmobs.Qlog.Type_mismatch, Xmorph.Report.loss_to_string r)
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
      | None -> Option.map Xmobs.Ctx.trace_id ctx);
    ctx_io = Option.map (fun c -> (c, Xmobs.Ctx.io c)) ctx;
    io0 = Store.Io_stats.snapshot (Store.Shredded.stats store);
  }

(* One record, two sinks: the on-disk query log and the request context
   installed on the calling thread, whose completed entry carries it to
   /debug/requests and incident bundles.  The record is built once, only
   when either sink can take it, so the path stays allocation-free when
   both are off. *)
let submit_entry m store ~source ~doc ~guard ~guard_hash ?query_hash
    ?classification ?(eval_s = 0.0) ?(render_s = 0.0) ?(out_nodes = 0)
    ?(cached = false) outcome error =
  if Xmobs.Qlog.enabled () || Xmobs.Ctx.active () then begin
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
        jobs = Xmutil.Pool.jobs ();
        cached;
        generation = Some (Store.Shredded.generation store);
      }
    in
    Xmobs.Qlog.submit e;
    Xmobs.Ctx.attach_qlog e
  end

let execute ~source ?(doc = "") ?(enforce = true) ?(compact = false)
    ?trace_id ?guard_hash ?query store guard =
  let m = start ?trace_id store in
  (* Hash once per request: the same FNV-1a digest feeds the query-log
     record, the warehouse submit, and both cache tiers.  The server
     threads its own (label) hash in via [?guard_hash]. *)
  let guard_hash =
    match guard_hash with
    | Some h -> h
    | None -> Xmobs.Qlog.hash_text guard
  in
  let query_hash = Option.map Xmobs.Qlog.hash_text query in
  let eval_s = ref 0.0 in
  let render_s = ref 0.0 in
  let classification = ref None in
  let out_nodes = ref 0 in
  let cached = ref false in
  let generation = Store.Shredded.generation store in
  let submit outcome error =
    submit_entry m store ~source ~doc ~guard ~guard_hash ?query_hash
      ?classification:!classification ~eval_s:!eval_s ~render_s:!render_s
      ~out_nodes:!out_nodes ~cached:!cached outcome error
  in
  (* Cache discipline.  Both tiers are bypassed (no lookup, no insert)
     while operator-statistics recording or profiling could observe this
     execution: a plan-cache hit skips the compile frames and a result
     hit skips everything, which would write meaningless near-zero rows
     into the warehouse and profiles. *)
  let use_cache =
    Xmcache.enabled ()
    && (not (Xmobs.Statdb.enabled ()))
    && not (Xmobs.Profile.profiling ())
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
  let cache_result ~is_query body =
    if use_cache then
      Xmcache.add_result ~generation ~guard_hash ~query_hash:qh ~compact
        ~enforce
        {
          Xmcache.body;
          is_query;
          classification = !classification;
          out_nodes = !out_nodes;
        }
  in
  let run () =
    let transform () =
      let t0 = now () in
      let compiled = compile_cached () in
      eval_s := !eval_s +. (now () -. t0);
      classification :=
        Some
          (Xmorph.Report.classification_to_string
             compiled.Xmorph.Interp.loss.Xmorph.Report.classification);
      let t1 = now () in
      let tree = Xmorph.Interp.render store compiled in
      render_s := !render_s +. (now () -. t1);
      (tree, compiled)
    in
    match query with
    | None ->
        let tree, compiled = transform () in
        out_nodes := Xml.Tree.count_nodes tree;
        let body =
          if compact then Xml.Printer.to_string tree ^ "\n"
          else Xml.Printer.to_string_indented tree
        in
        cache_result ~is_query:false body;
        Rendered { body; compiled }
    | Some q ->
        (* Mirror Guarded.Guarded_query.run_on_store, split for timing:
           same profiler frame, same error mapping, same materialization. *)
        let tree, compiled =
          Xmobs.Profile.op "guard.transform" transform
        in
        let t0 = now () in
        let result =
          try Xquery.Eval.run tree q with
          | Xquery.Eval.Error msg -> raise (Query_error msg)
          | Xquery.Qparse.Error _ as e -> (
              match Xquery.Qparse.error_message q e with
              | Some msg -> raise (Query_error msg)
              | None -> raise e)
        in
        let trees = Xquery.Value.to_trees result in
        eval_s := !eval_s +. (now () -. t0);
        out_nodes :=
          List.fold_left (fun acc t -> acc + Xml.Tree.count_nodes t) 0 trees;
        let b = Buffer.create 256 in
        List.iter
          (fun t ->
            Buffer.add_string b (Xml.Printer.to_string t);
            Buffer.add_char b '\n')
          trees;
        let body = Buffer.contents b in
        cache_result ~is_query:true body;
        Query_result { body; compiled }
  in
  (* Tier-2 consult: a hit serves the stored body verbatim (the
     byte-identity contract makes it equal to a cold render of this
     generation) and only touches the plan tier to rebuild the
     [compiled] the outcome carries. *)
  let serve_hit () =
    if not use_cache then None
    else
      match
        Xmcache.find_result ~generation ~guard_hash ~query_hash:qh ~compact
          ~enforce
      with
      | None -> None
      | Some entry ->
          cached := true;
          classification := entry.Xmcache.classification;
          out_nodes := entry.Xmcache.out_nodes;
          let compiled = compile_cached () in
          Some
            (if entry.Xmcache.is_query then
               Query_result { body = entry.Xmcache.body; compiled }
             else Rendered { body = entry.Xmcache.body; compiled })
  in
  (* Operator-statistics recording (--stats-db): run the execution under
     the global profiler and fold the frame tree, plus the compiled
     shape's predicted closest-join cardinalities, into the warehouse.
     The profiler is a single global frame tree and forces sequential
     render, so recorded executions are serialized on the shared
     recording lock — counts are then identical at any --jobs setting.
     An execution that already runs under the profiler (operator
     --profile, slow-query capture) owns the frame tree; skip recording
     rather than clobber it. *)
  let run_recorded () =
    if (not (Xmobs.Statdb.enabled ())) || Xmobs.Profile.profiling () then
      run ()
    else
      Xmobs.Statdb.serialized (fun () ->
          (* Re-check under the lock: --profile may have grabbed the
             frame tree between the gate and here. *)
          if Xmobs.Profile.profiling () then run ()
          else begin
            Xmobs.Profile.enable ();
            let harvest () =
              let frames = Xmobs.Profile.roots () in
              Xmobs.Profile.disable ();
              frames
            in
            match run () with
            | outcome ->
                let frames = harvest () in
                let predictions =
                  match outcome with
                  | Rendered { compiled; _ } | Query_result { compiled; _ } ->
                      Xmorph.Interp.predicted_joins
                        (Store.Shredded.guide store) compiled
                  | Failed _ -> []
                in
                Xmobs.Statdb.submit ~guard_hash ~predictions frames;
                outcome
            | exception e ->
                (* Partial frames from an aborted execution would skew
                   the history; drop them. *)
                ignore (harvest ());
                raise e
          end)
  in
  match (match serve_hit () with Some v -> v | None -> run_recorded ()) with
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

let record ~source ?(doc = "") ?(guard = "") ?query store f =
  if not (Xmobs.Qlog.enabled () || Xmobs.Ctx.active ()) then f ()
  else begin
    let m = start store in
    (* No breakdown is available here; charging the duration to eval_s as
       well would double-count it and skew the analyzer's eval
       percentiles, so only wall_s carries it. *)
    let submit =
      submit_entry m store ~source ~doc ~guard
        ~guard_hash:(Xmobs.Qlog.hash_text guard)
        ?query_hash:(Option.map Xmobs.Qlog.hash_text query)
    in
    match f () with
    | v ->
        submit Xmobs.Qlog.Ok None;
        v
    | exception e ->
        let kind, message = classify e in
        submit kind (Some message);
        raise e
  end
