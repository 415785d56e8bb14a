(** A log-scale bucket scale: [per_octave] buckets per doubling, bucket
    [mid] at 1.0, [count] buckets in all.  Bucket [i] holds the values
    that round to [2^((i - mid) / per_octave)].  The metrics registry,
    the rolling time series and the operator-statistics warehouse each
    keep their own constants over this one scale. *)

type t = private { per_octave : float; mid : int; count : int }

val make : per_octave:int -> mid:int -> count:int -> t

val index : t -> float -> int
(** The bucket of a value: [mid + round (per_octave * log2 v)], clamped
    to [0 .. count - 1]; [0] for [v <= 0].  Allocates nothing. *)

val value : t -> int -> float
(** The value a bucket stands for, [2^((i - mid) / per_octave)]. *)

val rank : int array -> int -> float -> int option
(** [rank counts n q]: the bucket holding the [q]-quantile of [n]
    observations counted in [counts], the first whose cumulative count
    exceeds [q * (n - 1)].  [None] when [n = 0], or when the counts sum
    to no more than that rank. *)
