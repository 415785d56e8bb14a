(** Request-scoped telemetry context (trace-context propagation): the
    one region instrument.

    A [Ctx.t] is one unit of work's private telemetry: a trace id (W3C
    [traceparent]-compatible), one stack of open regions, a bounded ring
    of spans (timestamps counted from the context's creation, exported
    by {!Trace.json_of_entries}), atomic per-context
    {!Store.Io_stats}-style byte/op counters, the request's query record
    ({!attach_qlog}), and — while someone asks for it — a {!Frames.tree}
    of profiler frames.  The serve daemon creates one per request; the
    CLI's [--trace FILE] creates one for the whole command and writes
    its {!trace_json} at exit.

    A region is a timed stretch of work.  Closing it appends a span when
    the context traces and folds it into the frame tree when the context
    keeps frames, both timed by one pair of clock reads.  Its grain is
    fixed by its name and so by its call site:
    - a {e layer} ({!region}, {!region_in}: parse, index, shred, lex,
      compile, loss, render, each [closest(a->b)] join, emit, the XQuery
      and logical query entry points) is kept in both forms;
    - an {e operator} ({!enter}/{!exit}: a [Semantics] algebra operator
      or an XQuery expression, repeated per item and meaningful only in
      aggregate) is kept only as a frame.

    A context is carried in a thread-keyed slot ({!install} /
    {!with_ctx}).  {!region} consults {!current}; with no context
    installed anywhere it is a single atomic load of the
    installed-context count (the one gate) and allocates nothing.  Hot
    paths do not consult the slot per call: an operation (a render, a
    type analysis, an XQuery evaluation, a value update) resolves
    {!current} once and passes the context to its operator regions,
    counts ({!add_in}, ...) and store charges ({!charge_read}), which
    read its fields directly: no lock, no lookup, and no allocation
    unless something is recorded.

    Attribution boundary: regions and I/O charges are recorded only from
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
(** A fresh context.  [capacity] bounds its span ring (default
    4096 spans, allocated only as spans arrive); [trace_id] (32 lowercase hex chars) and [parent_span] come
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
(** True when any thread has an installed context: one atomic load of
    the installed-context count, the one gate. *)

(** {2 Profiler frames} *)

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

(** {2 Regions} *)

val region :
  ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a
(** [region name f] runs [f] inside a layer region of the calling
    thread's installed context, closed when [f] returns or raises.  The
    span starts with [attrs] and carries the store I/O charged to the
    context while it was open as [bytes_read] / [bytes_written] (only
    the non-zero ones).  Without an installed context, or in one that
    neither traces nor keeps frames, it just runs [f]. *)

val region_in :
  ?attrs:(string * Trace.value) list -> t option -> string ->
  (unit -> 'a) -> 'a
(** {!region} in a context the operation already resolved. *)

val recording : t option -> bool
(** The context traces or keeps frames: a region in it records
    something.  For call sites that build a region's name. *)

val keeps_frames : t option -> bool
(** The context keeps frames: an operator region in it records. *)

type region
(** An open operator region, or a placeholder when nothing is
    recorded. *)

val enter : t option -> string -> region
(** Open an operator region: a frame under the innermost open region,
    when the context keeps frames; a placeholder otherwise, and then
    [enter] and {!exit} allocate nothing. *)

val exit : ?in_count:int -> ?out_count:int -> t option -> region -> unit
(** Close the region {!enter} returned for the same context: charge its
    elapsed time and block delta, bump the call count, and add the given
    node counts. *)

(** Attribute input/output node counts or closest-pair counts to the
    innermost open region's frame, when the context keeps frames (for
    loops that accumulate mid-region).  A caller whose count costs a
    walk takes it only when {!keeps_frames}. *)
val add_in : t option -> int -> unit

val add_out : t option -> int -> unit
val add_pairs : t option -> int -> unit

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
(** The context's spans, oldest first (in order of closing). *)

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
