(** Named counters, gauges, and log-scale histograms.

    A registry is a value its owner holds: each serve daemon makes its
    own (or takes the one in its {!Obs.sinks}), and the CLI's
    [--metrics FILE] makes one for the command and hands it down in its
    sinks.  Every update and every read names its registry; there is no
    global registry and no enable gate, so a caller without a registry
    writes nothing.  Name-based updates ({!inc}, {!set_gauge},
    {!observe}) look the name up under the registry lock; hot call sites
    intern a handle once and mutate it directly.

    A registry only records: nothing runs when a value changes, and no
    per-request copy is kept (a request's own record is its {!Ctx}
    entry: its spans and its query record).  Readers
    poll it (the [/metrics] scrape, [--metrics FILE] at exit).  The
    experiment harness does not read it: it samples the store's own
    counters on a timer, the role vmstat played in the paper's
    Figs. 11–13.

    Handle updates are domain-safe: counter adds are atomic (totals are
    exact under concurrent updates), histogram observations take a
    per-histogram lock, and gauge writes are word-sized stores with
    last-write-wins semantics.  Interning a handle locks the registry. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Handles} — intern once, then update without a name lookup. *)

val counter : r:t -> string -> counter
val gauge : r:t -> string -> gauge
val histogram : r:t -> string -> histogram
val counter_add : counter -> int -> unit
val gauge_set : gauge -> float -> unit

val hist_add : histogram -> float -> unit
(** Record a value into log-scale buckets (relative quantization error
    under 5%). *)

(** {2 Labeled families} — one series per label-value combination.

    A family interns [(name, sorted label pairs) → handle] under the
    registry lock.  Cardinality is bounded ([max_series], default 64):
    once the cap is reached, new label combinations collapse into a
    single overflow series whose values are ["_other"], so unbounded
    label domains (guard hashes, client-supplied names) cannot grow the
    registry without limit.  Label order does not matter — pairs are
    sorted by label name before interning. *)

val counter_labeled :
  r:t -> ?max_series:int -> string -> (string * string) list -> counter

val histogram_labeled :
  r:t -> ?max_series:int -> string -> (string * string) list -> histogram

(** {2 Name-based updates} — a name lookup under the registry lock. *)

val inc : r:t -> ?by:int -> string -> unit
val set_gauge : r:t -> string -> float -> unit
val observe : r:t -> string -> float -> unit

val inc_labeled : r:t -> ?by:int -> string -> (string * string) list -> unit
(** Like {!inc} into a labeled family series.  Building the label list
    allocates, so zero-alloc call sites must pre-intern a handle
    instead. *)

val observe_labeled : r:t -> string -> (string * string) list -> float -> unit

(** {2 Reads and export} *)

val counter_value : r:t -> string -> int
val gauge_value : r:t -> string -> float

val counter_value_labeled : r:t -> string -> (string * string) list -> int

val counter_series : r:t -> string -> ((string * string) list * int) list
(** All series of a labeled counter family, sorted by label values. *)

val histogram_series :
  r:t -> string -> ((string * string) list * (int * float)) list
(** All series of a labeled histogram family as [(labels, (count, sum))],
    sorted by label values. *)

val set_help : r:t -> string -> string -> unit
(** Register the HELP text exported for a metric family; families without
    one fall back to the metric name with dots spelled as spaces. *)

val percentile : r:t -> string -> float -> float option
(** [percentile name q] with [q] in [0,1]; [None] if the histogram is empty
    or absent. *)

val to_json : r:t -> unit -> Xmutil.Json.t

val to_prometheus : r:t -> ?info:(string * string) list -> unit -> string
(** Prometheus text exposition (format 0.0.4): every family gets [# HELP]
    and [# TYPE] lines; counters and gauges render as single samples,
    histograms as cumulative [_bucket{le="..."}] series (log-scale upper
    edges; zero-delta buckets elided) plus [_sum] and [_count], with the
    [+Inf] bucket always present and equal to [_count].  Labeled families
    render one sample (or bucket set) per series with escaped label
    values, [le] last.  Dotted metric names map to underscores.  [info]
    renders an [xmorph_info{k="v",...} 1] gauge. *)

val prometheus_name : string -> string
(** Sanitize a metric/label name to [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

val prometheus_escape_label : string -> string
(** Escape a label value: backslash, double quote, and newline. *)
