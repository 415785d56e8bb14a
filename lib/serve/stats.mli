(** Offline analyzer for the structured query log ([xmorph stats]).

    Reads a JSONL query log (from the serve daemon or one-shot runs with
    [--qlog]), aggregates it — latency and block-I/O percentiles through
    the {!Xmobs.Metrics} histogram machinery, outcome/error tables, top-N
    slowest queries — and renders text or JSON.  The JSON form doubles as
    the [BENCH_serve.json] benchmark artifact; {!compare_baseline} turns
    two of them into a regression verdict. *)

(** Percentile summary of one series (milliseconds or blocks). *)
type pct = { p50 : float; p95 : float; p99 : float; mean : float; max : float }

(** Latency triple over a subset of the records (the cached/uncached
    split). *)
type lat = {
  l_count : int;
  l_wall_ms : pct;
  l_eval_ms : pct;
  l_render_ms : pct;
}

type summary = {
  log_path : string;
  total : int;  (** well-formed records *)
  malformed : int;  (** lines that failed to parse *)
  by_outcome : (string * int) list;  (** all four outcomes, fixed order *)
  by_source : (string * int) list;  (** sorted by name *)
  error_rate : float;  (** non-[ok] records / total *)
  wall_ms : pct;
  eval_ms : pct;
  render_ms : pct;
  blocks : pct;
  blocks_total : int;
  cached : lat;
      (** records served from the result cache ([cached] flag).  Logs
          written before the flag existed parse as uncached, so this is
          empty for pre-cache history. *)
  uncached : lat;  (** real executions *)
  slowest : Xmobs.Qlog.entry list;  (** top N by wall time, slowest first *)
}

val percentiles : float list -> pct
(** Aggregate through a scoped {!Xmobs.Metrics} histogram (log-scale
    buckets, <5% relative error on p50/p95/p99; mean and max exact). *)

val load : string -> Xmobs.Qlog.entry list * int
(** Parse a JSONL file: [(entries, malformed_line_count)].  When a
    rotated sibling [FILE.1] exists (the [--qlog-max-mb] rotation
    target), both files are read and merged in timestamp order, so the
    analyzer sees the whole retained history.
    @raise Sys_error when the primary file cannot be read. *)

val analyze :
  ?top:int -> log_path:string -> malformed:int -> Xmobs.Qlog.entry list ->
  summary
(** [top] bounds [slowest] (default 5). *)

val to_text : summary -> string
val to_json : summary -> Xmutil.Json.t

(** {2 Warehouse cross-reference} — [xmorph stats --db]

    Joins the query log with an {!Xmobs.Statdb} warehouse by guard hash:
    per distinct guard in the log, how often and how slowly it ran
    (qlog side) and what its operators cost historically (warehouse
    side). *)

type guard_stats = {
  g_hash : string;  (** FNV-1a guard hash, the join key *)
  g_guard : string;  (** representative guard text, truncated *)
  g_count : int;  (** log records with this hash *)
  g_mean_wall_ms : float;
  g_ops : Xmobs.Statdb.summary list;
      (** warehouse rows for the guard, by descending self time; empty
          when the warehouse has no history for it *)
}

val cross_reference :
  db:Xmobs.Statdb.t -> Xmobs.Qlog.entry list -> guard_stats list
(** Sorted by descending query count. *)

val op_line : Xmobs.Statdb.summary -> string
(** One warehouse row on one line, unindented: exact counts, per-call
    derived values, and the q-error when predictions were folded.  The
    cross-reference and [xmorph explain]'s history both print it. *)

val op_json : Xmobs.Statdb.summary -> Xmutil.Json.t
(** {!op_line}'s row as JSON: the cross-reference's [ops] and
    [xmorph explain --json]'s [history] both write it. *)

val cross_reference_to_text : ?top_ops:int -> guard_stats list -> string
(** [top_ops] bounds the operator lines per guard (default 5). *)

val cross_reference_to_json : guard_stats list -> Xmutil.Json.t

type comparison = {
  baseline_path : string;
  baseline_p95_ms : float;
  current_p95_ms : float;
  ratio : float;  (** current / baseline; 1.0 when the baseline is 0 *)
  tolerance : float;
  regression : bool;  (** [ratio > 1 + tolerance] *)
}

val compare_baseline :
  ?tolerance:float -> baseline_path:string -> summary ->
  (comparison, string) result
(** Read a previous [to_json] artifact and compare p95 wall latency;
    [tolerance] defaults to 0.25 (25% slower is a regression).  [Error]
    when the baseline cannot be read or lacks the expected fields. *)

val comparison_to_text : comparison -> string
val comparison_to_json : comparison -> Xmutil.Json.t
