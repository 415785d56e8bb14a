(** Latency percentiles under the benchmark's reporting rule. *)

val min_beyond : int
(** 10: a percentile is reported only when at least this many samples lie
    beyond it. *)

val sorted : float list -> float array

val beyond : n:int -> float -> int
(** How many of [n] samples lie above the nearest-rank value of [p]. *)

val percentile : float array -> float -> float option
(** Nearest-rank percentile of a sorted array; [None] when the rule does
    not admit it. *)

val median : float array -> float
(** Median of a sorted array (mean of the middle pair when even); [nan]
    when empty. *)

val sum : float list -> float
