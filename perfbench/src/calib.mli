(** Host speed, measured by a fixed kernel of the benchmark's own.

    The shared host's speed drifts by tens of percent over minutes, with
    little or no recorded steal, so one run's raw times say as much about
    the host as about xmorph.  Each workload therefore times {!kernel}
    between its measured operations and scales every measured time by
    [ref_s /. k], where [k] is the median kernel time among the samples
    taken nearest to it.  A scaled time reads as the time on a host where
    the kernel takes [ref_s].  The kernel uses the standard library only,
    so a change to xmorph does not change it. *)

val ref_s : float
(** 0.002: the kernel time that defines a scale of 1, about the kernel's
    median on the reference machine. *)

val neighbours : int
(** 16: how many samples, nearest in time, [scale] takes the median of. *)

val kernel : unit -> int
(** Parse a fixed ~150 KB XML-like document into a tree, index its labels
    in a hash table and serialize it again: the allocation, string and
    hashing mix of an xmorph operation. *)

type t

val create : unit -> t

val sample : t -> unit
(** Finish the current major collection, then time {!kernel} once. *)

val scale : t -> float -> float
(** [scale c at]: [ref_s] over the median duration of the [neighbours]
    samples whose midpoints lie nearest to [at] (all of them when there
    are fewer).  Fails when [c] holds no sample. *)

val scaled : t -> start:float -> float -> float
(** [scaled c ~start dt]: the duration [dt] that began at [start],
    scaled by the host speed at its midpoint. *)

val of_samples : (float * float) list -> t
(** A recorder holding the given (midpoint, duration) samples; for tests. *)

val durations : t -> float array
(** Every sample's duration, sorted. *)
