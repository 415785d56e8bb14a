(** One guard/query execution with full telemetry.

    The single execution path behind [POST /query], [xmorph run],
    [xmorph query], [xmorph profile] and the shell, so the bytes returned
    for a guard are identical on each by construction.  Every call builds
    one {!Xmobs.Qlog} record — on success {e and} on every failure path —
    with the wall/eval/render breakdown, node counts, {!Store.Io_stats}
    deltas, and outcome classification, when the caller's sinks hold a
    query log or the call is handed a request context ([?ctx]).  It goes
    to the query log and to that context ({!Xmobs.Ctx.attach_qlog}),
    whose finished record carries it.

    This is where the pipeline's series reach a metrics registry: when
    the caller's sinks hold one, each execution adds its render's
    element and byte counts to the [render.elements] / [render.bytes]
    counters (a cached body renders nothing) and sets the [store.*]
    gauges from the store's I/O counters ({!store_gauges}), once, when
    it ends.  No pipeline layer below it (render, store, in-situ
    query) writes a registry. *)

type outcome =
  | Rendered of { body : string; compiled : Xmorph.Interp.t }
      (** the transformed XML as [xmorph run] prints it, written by one
          walk ({!Xmorph.Interp.render_to_buffer}): indented, or compact
          and newline-terminated with [~compact:true] *)
  | Query_result of { body : string; compiled : Xmorph.Interp.t }
      (** guarded-query result, answered in situ
          ({!Guarded.Logical}): one [Xml.Printer.to_string] line per
          result tree, as [xmorph query] prints it *)
  | Failed of { kind : Xmobs.Qlog.outcome; message : string }
      (** [kind] is never [Ok]; [message] is the human-readable error —
          for [Type_mismatch] it is the loss report *)

val store_gauges : Xmobs.Metrics.t -> Store.Shredded.t -> unit
(** Set the [store.bytes_read], [store.bytes_written],
    [store.blocks_read], [store.blocks_written], [store.read_ops] and
    [store.write_ops] gauges of the registry from the store's
    {!Store.Io_stats.snapshot}: after an execution, and after the serve
    daemon's writes. *)

val execute :
  ?ctx:Xmobs.Ctx.t ->
  ?sinks:Xmobs.Obs.sinks ->
  source:string ->
  ?doc:string ->
  ?enforce:bool ->
  ?compact:bool ->
  ?trace_id:string ->
  ?query:string ->
  Store.Shredded.t ->
  string ->
  outcome
(** [execute ~source store guard] compiles and renders [guard] against
    [store]; with [?query] it instead evaluates the XQuery query against
    the virtual transformed document ({!Guarded.Logical}, architecture 3),
    reusing the compiled plan.  The answer is that of the physical
    architecture ({!Guarded.Guarded_query.run_on_store}), byte for byte.
    Never raises: failures come back as [Failed].  [source] and [doc] are
    recorded in the query log verbatim.  [sinks] defaults to none; its
    warehouse records the execution's operator frames, into the
    [xmorph_operator_seconds] and [xmorph_card_qerror] families of its
    registry too.

    The record's [eval_s] is the compile, plus the in-situ evaluation for
    a query (its closest joins and result materialization included);
    [render_s] is the emit walk for a transform, and the printing of the
    result trees for a query.  [out_nodes] is the element and attribute
    count of the transformed document or of the result trees.

    When {!Xmcache} is enabled, the compiled plan is looked up there
    first, then the body, keyed on {!Store.Shredded.generation_of} over
    the types the plan reads ([Interp.t.reads]), and each is inserted on
    a miss: a write to a type the guard does not read leaves its cached
    bodies live.  Both tiers are bypassed while [sinks] holds a
    warehouse or [ctx] keeps profiler frames, so
    warehouse history and profiles always describe real executions.  A
    result-tier hit is flagged in the query-log record's [cached] field.

    Every layer the execution runs (compile, render, in-situ query) is a
    region of [ctx], and every store read is charged to it.  The
    query-log record's [trace_id] defaults to [ctx]'s when it traces;
    [?trace_id] overrides it — the serve daemon's slow-query
    re-execution passes the original request's id this way, since the
    capture runs in a context of its own.  With a context, the record's
    I/O delta comes from the context (exact for this request under
    concurrency) instead of the store-wide snapshot diff. *)
