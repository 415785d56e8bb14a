(** One guard/query execution with full telemetry.

    This is the single execution path behind [POST /query], [xmorph run],
    [xmorph query], [xmorph profile] and the shell: every call produces
    exactly one
    {!Xmobs.Qlog} record — on success {e and} on every failure path —
    with the wall/eval/render breakdown, node counts,
    {!Store.Io_stats} deltas, and outcome classification.
    The record is built only when the query log is on or a request
    context is installed ({!Xmobs.Ctx.active}); it goes to
    {!Xmobs.Qlog.submit} and, when the calling thread has a context, is
    attached to it ({!Xmobs.Ctx.attach_qlog}), so the completed-request
    ring carries each served request's record.  Executions outside a
    context (slow-query re-runs, every CLI run) reach only the query log.
    Because the serve daemon and the one-shot CLI share it, the bytes
    returned for a guard are identical by construction. *)

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

val execute :
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
    recorded in the query log verbatim.

    The record's [eval_s] is the compile, plus the in-situ evaluation for
    a query (its closest joins and result materialization included);
    [render_s] is the emit walk for a transform, and the printing of the
    result trees for a query.  [out_nodes] is the element and attribute
    count of the transformed document or of the result trees.

    When {!Xmcache} is enabled, the compiled plan is looked up there
    first, then the body, keyed on {!Store.Shredded.generation_of} over
    the types the plan reads ([Interp.t.reads]), and each is inserted on
    a miss: a write to a type the guard does not read leaves its cached
    bodies live.  Both tiers are
    bypassed entirely while {!Xmobs.Statdb} recording is on or the
    calling thread's context keeps profiler frames, so warehouse history
    and profiles always describe real executions; other threads' requests
    keep their caches.  A result-tier hit is flagged in the query-log
    record's [cached] field.

    The query-log record's [trace_id] defaults to the calling thread's
    installed {!Xmobs.Ctx} (if any); [?trace_id] overrides it — the serve
    daemon's slow-query re-execution passes the original request's id this
    way, since the capture runs after that request's context is gone.
    When a context is installed, the record's I/O delta comes from the
    context (exact for this request under concurrency) instead of the
    store-wide snapshot diff. *)
