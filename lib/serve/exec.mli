(** One guard/query execution with full telemetry.

    This is the single execution path behind [POST /query], [xmorph run],
    [xmorph query], and the shell: every call produces exactly one
    {!Xmobs.Qlog} record — on success {e and} on every failure path —
    with the wall/eval/render breakdown, node counts,
    {!Store.Io_stats} deltas, job count, and outcome classification.
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
      (** the transformed XML, serialized exactly as [xmorph run] prints
          it (indented, or compact with [~compact:true]) *)
  | Query_result of { body : string; compiled : Xmorph.Interp.t }
      (** guarded-query result: one [Xml.Printer.to_string] line per
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
  ?guard_hash:string ->
  ?query:string ->
  Store.Shredded.t ->
  string ->
  outcome
(** [execute ~source store guard] compiles and renders [guard] against
    [store]; with [?query] it then evaluates the XQuery query against the
    transformed tree (the physical guarded-query architecture).  Never
    raises: failures come back as [Failed].  [source] and [doc] are
    recorded in the query log verbatim.

    When {!Xmcache} is enabled, the compiled plan and the rendered body
    are looked up there first and inserted on a miss; both tiers are
    bypassed entirely while {!Xmobs.Statdb} recording or
    {!Xmobs.Profile} profiling is active, so warehouse history and
    profiles always describe real executions.  A result-tier hit is
    flagged in the query-log record's [cached] field.

    [?guard_hash] is the precomputed {!Xmobs.Qlog.hash_text} of [guard];
    pass it when the caller already hashed the guard (the server does,
    for metric labels) so the digest is computed once per request.

    The query-log record's [trace_id] defaults to the calling thread's
    installed {!Xmobs.Ctx} (if any); [?trace_id] overrides it — the serve
    daemon's slow-query re-execution passes the original request's id this
    way, since the capture runs after that request's context is gone.
    When a context is installed, the record's I/O delta comes from the
    context (exact for this request under concurrency) instead of the
    store-wide snapshot diff. *)

val record :
  source:string ->
  ?doc:string ->
  ?guard:string ->
  ?query:string ->
  Store.Shredded.t ->
  (unit -> 'a) ->
  'a
(** Coarse wrapper for execution paths that do not go through {!execute}
    (the in-situ logical evaluator, the profiler subcommand): times [f],
    classifies its outcome by exception, writes one query-log record, and
    re-raises.  The record goes to the same two sinks as {!execute}'s.
    The eval/render breakdown is not available here — the
    whole duration is charged to [wall_s] only, with [eval_s] and
    [render_s] reported as [0.0] so the analyzer's phase percentiles are
    not skewed by records that cannot attribute their time. *)
