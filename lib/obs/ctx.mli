(** Request-scoped telemetry context (trace-context propagation).

    The global {!Trace}/{!Metrics}/{!Profile} sinks are process-wide; once
    the serve daemon handles concurrent requests on worker threads their
    spans and I/O deltas interleave.  A [Ctx.t] is one request's private
    telemetry: a trace id (W3C [traceparent]-compatible), its own
    {!Trace.Recorder} (the global tracer's recorder type and Chrome
    [trace_event] exporter, timestamps counted from the context's
    creation), atomic per-request {!Store.Io_stats}-style byte/op
    counters, and a table of per-request metric increments.

    A context is carried in a thread-keyed slot ({!install} /
    {!with_ctx}): instrumentation points ({!Obs.phase}, the store's
    charge paths, {!Metrics} name-based updates) consult {!current} and
    record into the installed context, falling back to the global sinks
    when none is installed.  The no-context path is a single atomic load
    and allocates nothing, preserving the zero-cost contract of the rest
    of [xmobs].

    Attribution boundary: spans and metric increments are recorded only
    from the installing thread; I/O charges from {!Xmutil.Pool} worker
    domains (parallel render) miss the slot and stay global-only, so
    per-request I/O is exact at jobs = 1 and a lower bound otherwise.

    Completed requests land in a process-global bounded ring
    ({!finish} / {!completed}), each with its executed-query record
    ({!attach_qlog}).  The ring backs the serve daemon's
    [GET /debug/requests] and [GET /debug/trace/<id>] endpoints and is
    all the flight recorder's incident bundles read of recent requests:
    their spans, their query records and their summaries.  A slow-query
    capture can attach a profiler JSON after the fact
    ({!attach_profile}). *)

type t

val create : ?capacity:int -> ?trace_id:string -> ?parent_span:string ->
  unit -> t
(** A fresh context.  [capacity] bounds its recorder's ring (default
    4096 entries, allocated only as spans arrive); [trace_id] (32 lowercase hex chars) and [parent_span] come
    from an upstream [traceparent] header when honoring one — by default
    a fresh trace id is generated. *)

val trace_id : t -> string

val traceparent : t -> string
(** The W3C header value for this hop:
    [00-<trace-id>-<span-id>-01]. *)

val parse_traceparent : string -> (string * string) option
(** Validate a [traceparent] header: [Some (trace_id, parent_span_id)]
    for a well-formed value (lowercase hex, non-zero ids, version not
    [ff]), [None] otherwise — the caller falls back to a fresh trace. *)

val fresh_trace_id : unit -> string
(** 32 lowercase hex chars, unique within the process. *)

val fresh_span_id : unit -> string
(** 16 lowercase hex chars. *)

(** {2 The thread-keyed slot} *)

val install : t -> unit
(** Bind [t] to the calling thread (replacing any previous binding). *)

val uninstall : unit -> unit
(** Unbind the calling thread's context, if any. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** [install], run, [uninstall] (on exceptions too). *)

val current : unit -> t option
(** The context installed on the calling thread.  When no context is
    installed on any thread this is one atomic load, no lock, no
    allocation. *)

val active : unit -> bool
(** True when any thread has an installed context (the zero-alloc gate
    instrumentation checks before doing per-request work). *)

(** {2 Recording} *)

val with_span :
  ?attrs:(string * Trace.value) list -> t -> string -> (unit -> 'a) -> 'a
(** {!Trace.Recorder.with_span} on [t]'s recorder.  Call only from the
    installing thread. *)

val charge_read : int -> unit
(** [charge_read bytes] adds to the calling thread's installed context
    (bytes + one op); a gated no-op without one.  Called by
    [Store.Io_stats] alongside its global counters. *)

val charge_write : int -> unit

val bump : ?by:int -> string -> unit
(** Record a counter increment against the installed context; a gated
    no-op without one.  Called by {!Metrics.inc}. *)

val observe : string -> float -> unit
(** Record a histogram observation (count + sum) against the installed
    context; called by {!Metrics.observe}. *)

(** {2 Reads and export} *)

type io = {
  bytes_read : int;
  bytes_written : int;
  read_ops : int;
  write_ops : int;
}

val io : t -> io
(** The context's cumulative I/O charges.  Byte and op totals across
    concurrent contexts sum exactly to the global {!Store.Io_stats}
    deltas over the same window (atomic adds commute). *)

val blocks_of : int -> int
(** Bytes to 4096-byte blocks, rounding up — the same page model as
    [Store.Io_stats.blocks_of]. *)

val entries : t -> Trace.entry list
(** The recorder's ring, oldest first. *)

val span_count : t -> int

val trace_json : t -> Xmutil.Json.t
(** Chrome [trace_event] JSON of the context's spans, via
    {!Trace.json_of_entries} — the same exporter as [--trace]. *)

val metrics_json : t -> Xmutil.Json.t
(** Per-request metric increments:
    [{"counters": {...}, "observations": {name: {count, sum}}}]. *)

(** {2 The request's query record} *)

val attach_qlog : Qlog.entry -> unit
(** Keep [e] as the calling thread's installed context's query record
    (the last one wins); a no-op without a context.  Called by the
    execution path beside [Qlog.submit]. *)

(** {2 The completed-request ring} *)

type completed = {
  c_trace_id : string;
  c_label : string;  (** guard hash for queries, path otherwise *)
  c_outcome : string;
  c_status : int;  (** HTTP status *)
  c_wall_s : float;
  c_ts : float;  (** Unix time at context creation *)
  c_io : io;
  c_span_count : int;
  c_entries : Trace.entry list;
      (** {!entries} at finish, timestamped from [c_ts]; rendered with
          {!Trace.json_of_entries} when read *)
  c_metrics : Xmutil.Json.t;
  c_qlog : Qlog.entry option;
      (** the request's query record ({!attach_qlog}); [None] when the
          request executed nothing *)
  mutable c_profile : Xmutil.Json.t option;
      (** attached by slow-query capture *)
}

val set_ring_capacity : int -> unit
(** Bound the ring (default 256 completed requests), keeping the newest
    entries that fit. *)

val finish : t -> label:string -> outcome:string -> status:int ->
  wall_s:float -> unit
(** Seal the context into a {!completed} entry and push it onto the
    ring, evicting the oldest entry beyond capacity. *)

val completed : unit -> completed list
(** Ring contents, newest first. *)

val find_completed : string -> completed option
(** Look a completed request up by trace id. *)

val attach_profile : trace_id:string -> Xmutil.Json.t -> bool
(** Attach a profiler JSON to a ring entry; false when the trace id has
    been evicted (or never finished). *)

val reset_completed : unit -> unit
(** Drop the ring (tests). *)
