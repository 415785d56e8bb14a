(** A small fixed domain pool for data-parallel sections.

    The renderer partitions its closest-join parent arrays and the
    independent edges of a render plan across this pool.  Sizing is
    process-global: the effective job count starts at the [XMORPH_JOBS]
    environment variable (default 1; the CLI's [--jobs] overrides it via
    {!set_jobs}).  With one job nothing is ever spawned and {!parallel} is
    exactly a left-to-right [List.map], so the default behaves precisely
    like the sequential code it replaced.

    Worker domains ([jobs - 1] of them; the calling domain is the last
    participant) are spawned lazily, live for the whole process, and are
    joined from an [at_exit] hook.  Batches are fork-join with helping:
    while a caller waits for its batch it executes queued tasks, so nested
    {!parallel} calls cannot deadlock. *)

val jobs : unit -> int
(** The effective job count (>= 1). *)

val set_jobs : int -> unit
(** Override the job count (clamped to [1 .. 64]).  Takes effect for
    subsequent {!parallel} calls; already-spawned workers are kept. *)

val default_jobs : unit -> int
(** What [XMORPH_JOBS] requested at startup (1 when unset or malformed). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count] clamped to the pool maximum. *)

val parallel : (unit -> 'a) list -> 'a list
(** Run the thunks across the pool and return their results in input
    order.  Sequential (in order, no spawning) when [jobs () <= 1] or
    fewer than two thunks.  If any thunk raises, the whole batch still
    runs to completion and the lowest-index exception is re-raised.
    Thunks may themselves call [parallel]. *)

val chunks : total:int -> parts:int -> (int * int) array
(** Contiguous [[start, stop)] ranges covering [0 .. total), balanced to
    within one element, at most [parts] of them (fewer when [total] is
    small); empty when [total <= 0]. *)
