(** Persistent operator-statistics warehouse.

    {!Profile} frames die with the process; this module aggregates them
    online into compact per-(guard-hash, operator-name) summaries — calls,
    wall/self time, a log-scale latency histogram, in/out node counts,
    closest-join pairs, block-I/O deltas — plus predicted-vs-observed
    cardinality accuracy (q-error) for the closest joins, and persists the
    lot as a small versioned JSON file.  It is the historical side of the
    cost-based-optimizer loop: [xmorph explain] reads it to annotate plans
    with measured costs, and the Prometheus families
    [xmorph_operator_seconds{op}] / [xmorph_card_qerror{op}] export the
    live stream.

    A warehouse is a plain value.  The CLI opens the [--stats-db] file
    with {!load}, hands it to each execution ([Xmserve.Exec.execute
    ?sinks]), and registers {!flush} on {!Shutdown}; an execution without
    one records nothing.  All mutation of a warehouse is serialized by an
    internal mutex.  Recorded frames come from {!Ctx.profiled}, which
    keeps each execution's frames in its own context, so concurrent
    recordings need no lock around the execution. *)

(** One summary row: everything recorded about one operator under one
    guard.  Counts are exact sums over recordings; times are cumulative
    microseconds.  [pred_lo]/[pred_hi] accumulate the predicted closest
    pair interval ([pred_hi = -1] once any prediction was unbounded) and
    [observed] the pairs actually produced, so historical
    predicted-vs-actual is a stored fact, not a recomputation. *)
type summary = {
  s_guard : string;  (** FNV-1a guard hash, as in the query log *)
  s_op : string;  (** profiler frame name, e.g. [closest(a->b)] *)
  mutable calls : int;
  mutable wall_us : float;
  mutable self_us : float;
  mutable in_nodes : int;
  mutable out_nodes : int;
  mutable pairs : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable latency : (int * int) list;
      (** sparse log-scale buckets of per-call self time:
          [(bucket_index, call_count)], ascending index *)
  mutable pred_lo : int;
  mutable pred_hi : int;  (** [-1] = unbounded *)
  mutable observed : int;
  mutable qerr_sum : float;
  mutable qerr_max : float;
  mutable qerr_n : int;
}

type t

(** {2 Latency buckets}

    Per-call self time in microseconds lands in bucket
    [floor(mid + scale * log2 us)] clamped to [0 .. buckets-1] — quarter
    octaves from sub-microsecond to ~3.5 s. *)

val buckets : int
val bucket_of_us : float -> int
val bucket_value_us : int -> float
(** Upper edge of a bucket, in microseconds. *)

(** {2 Warehouses} *)

val create : unit -> t
(** An empty warehouse held in memory only: {!flush} writes nothing. *)

val record :
  t ->
  guard_hash:string ->
  ?predictions:(string * Xmutil.Card.t * int) list ->
  Profile.frame list ->
  unit
(** Flatten a profile tree (frames merged by name, as {!Profile} already
    merges repeats under one parent) into the warehouse under
    [guard_hash].  [predictions] pairs operator names with the per-parent
    predicted cardinality and the parent instance count; operators that
    did not run this execution are skipped.  Feeds the
    [xmorph_operator_seconds] / [xmorph_card_qerror] metric families when
    metrics are enabled.  Thread-safe. *)

val merge : into:t -> t -> unit
(** Add every row of the second warehouse into the first (summaries with
    the same (guard, op) key are summed). *)

val find : t -> guard_hash:string -> op:string -> summary option
val guard_ops : t -> guard_hash:string -> summary list
(** All rows for a guard, sorted by operator name (deterministic, so the
    explain history section can be test-pinned). *)

val rows : t -> summary list
(** Every row, sorted by (guard, op). *)

val size : t -> int

val to_json : t -> Xmutil.Json.t
(** Versioned: [{"xmorph_statdb": 1, "records": [...]}]. *)

val of_json : Xmutil.Json.t -> t
(** @raise Failure on a structurally alien document. *)

(** {2 Persistence} *)

val load : string -> t
(** Open the warehouse file at a path: its rows, backed by that file,
    which {!flush} rewrites.  A missing file is an empty warehouse; a
    truncated, corrupt, or wrong-version file is an empty warehouse plus
    one warning line on stderr — never a raise (the warehouse is
    telemetry; losing it must not take the query path down). *)

val save : t -> string -> unit
(** Atomic write (temp file + rename) of the in-memory state.  The merge
    with any previous contents happened at {!load} time — saving does not
    re-read the file, so two processes sharing a path last-write-wins
    rather than double-count. *)

val path : t -> string option
(** The file {!load} read; [None] for a warehouse made by {!create} or
    {!of_json}. *)

val flush : t -> unit
(** Save to {!path} when anything was recorded or merged since the last
    flush.  A failed write warns on stderr and never raises. *)
