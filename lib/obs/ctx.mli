(** Request-scoped telemetry context (trace-context propagation): the
    one region instrument.

    A [Ctx.t] is one unit of work's private telemetry: a trace id (W3C
    [traceparent]-compatible), one stack of open regions, a bounded ring
    of spans (timestamps counted from the context's creation, exported
    by {!Trace.json_of_entries}), atomic per-context
    {!Store.Io_stats}-style byte/op counters, the request's query record
    ({!attach_qlog}), and — while someone asks for it — a {!Frames.tree}
    of profiler frames.  The serve daemon creates one per request; the
    CLI's [--trace] and [--profile] create one for the whole command,
    which writes its {!trace_json} and {!frame_roots} at exit.

    A region is a timed stretch of work.  Closing it appends a span when
    the context traces and folds it into the frame tree when the context
    keeps frames, both timed by one pair of clock reads.  Its grain is
    fixed by its name and so by its call site:
    - a {e layer} ({!region}: parse, index, shred, lex, compile, loss,
      render, each [closest(a->b)] join, emit, the XQuery and logical
      query entry points; the static names are {!Layer}'s) is kept in
      both forms;
    - an {e operator} ({!enter}/{!exit}: a [Semantics] algebra operator
      or an XQuery expression, repeated per item and meaningful only in
      aggregate) is kept only as a frame.

    A context is handed, never looked up: every operation that opens a
    region or charges store I/O takes it as [?ctx] and passes it on to
    the layers it calls, down to its operator regions, counts
    ({!add_in}, ...) and store charges ({!charge_read}), which read its
    fields directly.  With no context, or one that neither traces nor
    keeps frames, a region is a match and a call of [f]: no gate, no
    lock, no allocation.  [Ctx] holds no global state besides its id
    counter.

    A context serves one operation at a time, on whichever thread runs
    it, and records exactly what was handed it.  The library starts no
    domains — a render runs on the thread that called it — so
    per-context I/O is exact.

    A finished request is sealed by {!finish} into one record, with its
    executed-query record ({!attach_qlog}): the serve daemon folds it
    into its metric families and windows and keeps it in its own
    bounded request ring, behind [GET /debug/requests],
    [GET /debug/trace/<id>] and its flight recorder's incident bundles.
    A slow-query capture's frames are sealed into the record by
    {!finish}.  [Ctx] itself keeps no finished requests. *)

type t

val create : ?capacity:int -> ?trace_id:string -> ?parent_span:string ->
  ?traced:bool -> ?frames:bool -> unit -> t
(** A fresh context.  [capacity] bounds its span ring (default
    4096 spans, allocated only as spans arrive); [trace_id] (32 lowercase hex chars) and [parent_span] come
    from an upstream [traceparent] header when honoring one — by default
    a fresh trace id is generated.  [traced] (default [true]) makes its
    layer regions spans and stamps its trace id into query records;
    [frames] (default [false]) makes it keep a frame tree from the
    start, as the CLI's [--profile] does. *)

val trace_id : t -> string

val traced_id : t -> string option
(** The trace id query records made under [t] carry: [None] for an
    untraced context ([~traced:false], or the one {!profiled} makes),
    whose spans nobody exports. *)

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

(** {2 Profiler frames} *)

val frame_roots : t -> Frames.frame list
(** The root frames of [t]'s frame tree, oldest first; [[]] when it
    keeps none. *)

val profiled : ?ctx:t -> (t -> 'a) -> 'a * Frames.frame list
(** [profiled ?ctx f] gives [ctx] a fresh frame tree (a fresh untraced
    context when there is none), hands it to [f], restores the tree it
    had, and returns [f]'s result and root frames — exactly what [f]
    recorded into the context it was handed.  An exception from [f]
    propagates, dropping its frames. *)

(** {2 Regions} *)

val region :
  ?attrs:(string * Trace.value) list -> t option -> string ->
  (unit -> 'a) -> 'a
(** [region ctx name f] runs [f] inside a layer region of [ctx], closed
    when [f] returns or raises.  The span starts with [attrs] and
    carries the store I/O charged to the context while it was open as
    [bytes_read] / [bytes_written] (only the non-zero ones).  Without a
    context, or in one that neither traces nor keeps frames, it just
    runs [f]. *)

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

val add_attr : t option -> string -> Trace.value -> unit
(** Attach an attribute to the innermost open span of the context; a
    no-op without one, or with no span open. *)

val charge_read : t -> before:int -> int -> unit
(** [charge_read t ~before bytes] adds [bytes] and one op to [t], the
    context handed to the operation charging it.  Called by
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

val attach_qlog : t -> Qlog.entry -> unit
(** [attach_qlog t e] keeps [e] as [t]'s query record (the last one
    wins).  Called by the execution path beside its query-log write. *)

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
