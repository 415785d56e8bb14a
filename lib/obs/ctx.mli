(** Request-scoped telemetry context (trace-context propagation): the
    one span sink.

    A [Ctx.t] is one unit of work's private telemetry: a trace id (W3C
    [traceparent]-compatible), its own {!Trace.Recorder} (timestamps
    counted from the context's creation, exported by
    {!Trace.json_of_entries}), atomic per-context {!Store.Io_stats}-style
    byte/op counters, the request's query record ({!attach_qlog}), and —
    while someone asks for it — a {!Frames.tree} of profiler frames.  The
    serve daemon creates one per request; the CLI's [--trace FILE]
    creates one for the whole command and writes its {!trace_json} at
    exit.

    A context is carried in a thread-keyed slot ({!install} /
    {!with_ctx}): instrumentation points ({!Obs.phase}, {!add_attr})
    consult {!current} and record into the installed context.  Without
    one, no span is recorded.  The no-context path is a single
    atomic load and allocates nothing, preserving the zero-cost contract
    of the rest of [xmobs].

    Store I/O does not consult the slot per charge.  An operation over a
    store (a render, an in-situ query, a value update) resolves
    {!current} once and passes the context to each of its charges
    ({!charge_read}), which only adds to counters: no lock, no lookup,
    no allocation.

    Attribution boundary: spans and I/O charges are recorded only from
    the installing thread.  The library starts no domains — a render
    runs on the thread that called it — so per-context I/O is exact.

    A finished request is sealed by {!finish} into one record, with its
    executed-query record ({!attach_qlog}): the serve daemon folds it
    into its metric families and windows and keeps it in its own
    bounded request ring, behind [GET /debug/requests],
    [GET /debug/trace/<id>] and its flight recorder's incident bundles.
    A slow-query capture's frames are sealed into the record by
    {!finish}.  [Ctx] itself keeps no finished requests. *)

type t

val create : ?capacity:int -> ?trace_id:string -> ?parent_span:string ->
  unit -> t
(** A fresh context.  [capacity] bounds its recorder's ring (default
    4096 entries, allocated only as spans arrive); [trace_id] (32 lowercase hex chars) and [parent_span] come
    from an upstream [traceparent] header when honoring one — by default
    a fresh trace id is generated. *)

val trace_id : t -> string

val traced_id : t -> string option
(** The trace id query records made under [t] carry: [None] for the
    contexts {!profiled} and {!keep_frames} install when a thread has
    none, whose spans nobody exports. *)

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
(** [install], run, then restore the binding [install] replaced —
    [uninstall] when there was none — on exceptions too.  Nested calls
    therefore leave an outer context installed. *)

val current : unit -> t option
(** The context installed on the calling thread.  When no context is
    installed on any thread this is one atomic load, no lock, no
    allocation. *)

val active : unit -> bool
(** True when any thread has an installed context (the zero-alloc gate
    instrumentation checks before doing per-request work). *)

(** {2 Profiler frames} *)

val profiling : unit -> bool
(** True while any context keeps frames: one atomic load of their count,
    the gate every {!Profile} entry point checks first. *)

val frames : unit -> Frames.tree option
(** The frame tree of the calling thread's installed context; [None]
    without one, or when it keeps none. *)

val profiled : (unit -> 'a) -> 'a * Frames.frame list
(** [profiled f] gives the calling thread's context a fresh frame tree
    (installing a temporary untraced context when there is none), runs
    [f], restores what was there, and returns [f]'s result and root
    frames — exactly [f]'s own, whatever other threads run.  An exception
    from [f] propagates, dropping its frames. *)

val keep_frames : unit -> Frames.tree
(** Make the calling thread's context (an untraced one, installed, when
    there is none) keep frames for good: the command-wide [--profile]. *)

(** {2 Recording} *)

val with_span :
  ?attrs:(string * Trace.value) list -> t -> string -> (unit -> 'a) -> 'a
(** {!Trace.Recorder.with_span} on [t]'s recorder.  When store I/O was
    charged to [t] while the span was open, the span also carries it as
    [bytes_read] / [bytes_written] integer attributes (only the non-zero
    ones).  Call only from the installing thread. *)

val add_attr : string -> Trace.value -> unit
(** Attach an attribute to the innermost open span of the calling
    thread's installed context; a gated no-op without one. *)

val charge_read : t -> before:int -> int -> unit
(** [charge_read t ~before bytes] adds [bytes] and one op to [t], the
    context an operation resolved once; no lookup.  Called by
    [Store.Io_stats] beside its own counter, which stood at [before]
    bytes; when [t] keeps frames, the pages that counter crossed
    ({!blocks_of}) go to the innermost frame. *)

val charge_write : t -> before:int -> int -> unit

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

val block_size : int
(** 4096 bytes: the page of the store's I/O model, which
    [Store.Io_stats] shares. *)

val blocks_of : int -> int
(** Bytes to {!block_size} blocks, rounding up: the one page model. *)

val entries : t -> Trace.span list
(** The recorder's ring, oldest first. *)

val trace_json : t -> Xmutil.Json.t
(** Chrome [trace_event] JSON of the context's spans, via
    {!Trace.json_of_entries}. *)

(** {2 The request's query record} *)

val attach_qlog : Qlog.entry -> unit
(** Keep [e] as the calling thread's installed context's query record
    (the last one wins); a no-op without a context.  Called by the
    execution path beside its query-log write. *)

(** {2 The finished request} *)

type finished = {
  c_trace_id : string;
  c_label : string;  (** guard hash for queries, path otherwise *)
  c_outcome : string;
  c_status : int;  (** HTTP status *)
  c_wall_s : float;
  c_ts : float;  (** Unix time at context creation *)
  c_io : io;
  c_span_count : int;
  c_entries : Trace.span list;
      (** {!entries} at finish, timestamped from [c_ts]; rendered with
          {!Trace.json_of_entries} when read *)
  c_qlog : Qlog.entry option;
      (** the request's query record ({!attach_qlog}); [None] when the
          request executed nothing *)
  c_profile : Frames.frame list option;
      (** a slow-query capture's frames, passed to {!finish} *)
}

val finish : ?profile:Frames.frame list -> ?label:string -> ?outcome:string ->
  t -> status:int -> wall_s:float -> finished
(** Seal the context (and [profile], when given) into a {!finished}
    record and return it; whoever keeps finished requests keeps it.
    [label] and [outcome] name the request; each defaults to the query
    record's guard hash and outcome when the context holds one, and to
    [""] otherwise. *)
