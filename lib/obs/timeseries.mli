(** Rolling per-second time series: rates and windowed percentiles.

    Where {!Metrics} answers cumulative-since-start questions, a
    [Timeseries.t] answers time-resolved ones — requests per second right
    now, p95 latency over the last five minutes, whether a burst has
    decayed.  Each series is a ring of [window] one-second slots plus an
    incrementally maintained rolling aggregate: writes take the series
    mutex and touch one slot (lock-cheap, O(1)); reads expire stale slots
    first.

    Histogram-kind series bucket values on a coarse log scale (4 buckets
    per octave, ~20 % resolution) — plenty for dashboards and SLO checks,
    and cheap enough to keep one array per live second.

    Clocks are injectable per series so window math can be unit-tested
    against synthetic time.  There is no registry: each owner (the serve
    daemon, the alert engine's query stream) creates its own handles. *)

type t

type kind = Counter | Histogram

val create : ?window:int -> ?clock:(unit -> float) -> kind -> t
(** A fresh series.  [window] is clamped to [1, 86400] seconds and
    defaults to 300; [clock] defaults to [Unix.gettimeofday]. *)

val window : t -> int

val bump : ?by:int -> t -> unit
(** Count [by] events in the current second. *)

val record : t -> float -> unit
(** Record one observation of value [v] (histogram kind buckets it). *)

val count_in_window : t -> int
val sum_in_window : t -> float

val lifetime : t -> int
(** Total count since creation; never expires. *)

val rate : t -> float
(** Events per second over the window: window count / window length. *)

val percentile : t -> float -> float option
(** [percentile t q] with [q] in [0,1] over the window; [None] for
    counter-kind or empty-window series. *)

val count_last : t -> int -> int
(** [count_last t k]: events in the last [k] seconds ([k] clamped to
    [1, window t]).  With [k >= window t] this and the other [_last]
    reads answer from the rolling aggregate without walking slots. *)

val sum_last : t -> int -> float
(** Sum of values recorded in the last [k] seconds. *)

val percentile_last : t -> int -> float -> float option
(** [percentile_last t k q]: percentile over only the last [k] seconds
    of the window; [None] for counter-kind or when those seconds are
    empty. *)

val ratio : ?last_s:int -> t -> t -> float option
(** [ratio ?last_s num den]: windowed count of [num] divided by windowed
    count of [den] (each restricted to the last [last_s] seconds when
    given).  [None] when the denominator count is zero.  The two series
    are read sequentially, never with both locks held. *)

val error_budget_burn :
  objective:float -> ?window_s:int -> t -> t -> float option
(** [error_budget_burn ~objective ?window_s err total]: the burn rate of
    an SLO error budget — (observed error ratio) / [objective], where
    [objective] is the budgeted error fraction (e.g. [0.001] for a
    99.9 % SLO).  A value of 1.0 consumes the budget exactly on
    schedule; multi-window burn-rate alerts fire when both a fast and a
    slow window exceed a factor like 14.4.  [None] when [total] saw no
    traffic in the window or [objective <= 0]. *)

val to_json : ?last_s:int -> t -> Xmutil.Json.t
(** [{kind, window_s, count, rate, sum, lifetime, p50/p95/p99 (histogram
    kind), seconds}] over the last [last_s] seconds (default and maximum:
    the whole window, which [window_s] then reports), where [seconds] is
    the per-second count for the last [min window_s 60] seconds, oldest
    first. *)
