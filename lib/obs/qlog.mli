(** Structured query log: one JSONL record per executed guard/query.

    Every execution surface — the serve daemon, [xmorph run]/[query], the
    shell — appends one {!entry} per guard or guarded-query execution,
    including failed ones, so offline and served workloads aggregate in the
    same log and [xmorph stats] can analyze either.

    The writer is a size-capped ring-to-disk buffer: records accumulate in
    a bounded in-memory buffer and spill to the file (append mode) whenever
    the cap is reached; {!flush} forces the spill.  [log] is safe to call
    from any thread or domain — a record is serialized and enqueued under
    a mutex, so concurrent writers always produce whole, non-interleaved
    lines.

    A process-global sink ({!enable} / {!submit}) mirrors the
    {!Trace}/{!Metrics} pattern: instrumented call sites are a single
    branch when no sink is installed.  Enabling registers a flush with
    {!Shutdown}, so records survive SIGTERM/SIGINT as well as clean
    exits once {!Shutdown.install} has run. *)

type outcome =
  | Ok  (** the execution completed and produced a result *)
  | Parse_error  (** guard or query failed to parse or to compile *)
  | Type_mismatch  (** type enforcement rejected the guard's loss class *)
  | Internal  (** any other exception *)

val outcome_to_string : outcome -> string
(** [ok], [parse-error], [type-mismatch], [internal]. *)

val outcome_of_string : string -> outcome option

(** Store I/O charged while the query ran ({!Store.Io_stats} snapshot
    delta, represented as plain ints to keep [xmobs] at the bottom of the
    dependency stack). *)
type io = {
  bytes_read : int;
  bytes_written : int;
  blocks_read : int;
  blocks_written : int;
  read_ops : int;
  write_ops : int;
}

type entry = {
  ts : float;
      (** Unix time at the start of the execution; serialized as the
          integer [ts_ms] field (millisecond precision) *)
  id : int;  (** monotonic per-process query id ({!next_id}) *)
  trace_id : string option;
      (** the request context's trace id ({!Ctx}) when the execution ran
          under one — joins a log record to [GET /debug/trace/<id>].
          Absent from records written before this field existed; old
          logs still parse. *)
  source : string;  (** [serve], [run], [query], [profile], [shell], ... *)
  doc : string;  (** target document/store name; [""] when unknown *)
  guard : string;  (** guard text, verbatim *)
  guard_hash : string;  (** FNV-1a 64-bit hex of the guard text *)
  query_hash : string option;  (** hash of the XQuery text, if any *)
  classification : string option;  (** information-loss class, if compiled *)
  outcome : outcome;
  error : string option;  (** first line of the failure message *)
  wall_s : float;
  eval_s : float;  (** compile + query evaluation *)
  render_s : float;
  in_nodes : int;  (** store node count fed to the execution *)
  out_nodes : int;  (** nodes in the rendered/materialized result *)
  io : io option;
  cached : bool;
      (** the body was served from the result cache rather than rendered.
          Serialized only when [true]; records written before this field
          existed (or by cache-less runs) lack it and parse as [false]. *)
  generation : int option;
      (** store generation ({!Store.Shredded.generation}) the execution
          ran against — joins a record (and in particular a result-cache
          hit) to a document version.  Serialized only when [Some];
          records written before this field existed lack it and parse as
          [None]. *)
}

val next_id : unit -> int
(** Monotonic query id (atomic; unique within the process). *)

val hash_text : string -> string
(** FNV-1a 64-bit, lowercase hex. *)

val entry_to_json : entry -> Xmutil.Json.t

val entry_of_json : Xmutil.Json.t -> entry
(** @raise Failure when a required field is missing or mistyped. *)

val entry_to_line : entry -> string
(** Single-line JSON, no trailing newline. *)

(** {2 Writers} *)

type t

val create : ?cap:int -> ?max_bytes:int -> string -> t
(** Open [path] for appending.  [cap] bounds the in-memory buffer in bytes
    (default 64 KiB); crossing it spills to disk.  [max_bytes] enables
    size-based rotation: when the file reaches the threshold (counting
    pre-existing content — append mode survives restarts) it is renamed
    to [path.1], replacing any previous rotation, and a fresh file is
    opened; checked after every record under the writer mutex, against
    the bytes written plus the bytes buffered, so a rotated file exceeds
    the threshold by less than one record however often {!flush} runs.  Path
    ["-"] streams to stdout instead (the channel is flushed on {!close},
    never closed; rotation does not apply). *)

val path : t -> string
val log : t -> entry -> unit
val pending : t -> int
(** Bytes currently buffered and not yet on disk. *)

val flush : t -> unit
val close : t -> unit

(** {2 Global sink} *)

val enable : ?cap:int -> ?max_bytes:int -> string -> unit
(** Install [path] as the process-global sink (closing any previous one)
    and register its flush on the {!Shutdown} path. *)

val disable : unit -> unit
(** Flush, close, and uninstall the global sink. *)

val enabled : unit -> bool

val submit : entry -> unit
(** Append to the global sink; a no-op when none is installed. *)

val flush_global : unit -> unit
