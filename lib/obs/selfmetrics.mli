(** Process self-metrics: uptime, resident set size, GC gauges.

    {!sample} sets up to seven gauges in the {!Metrics} registry it is
    given — [xmorph_uptime_seconds], [xmorph_rss_bytes] (from
    [/proc/self/statm]; left unset when procfs is absent or the file is
    malformed — degradation never raises), [gc_major_collections],
    [gc_heap_words], and [gc_minor_allocated_words], plus the
    [xmorph_open_fds] and [xmorph_threads_total] procfs probes.  The
    serve daemon calls it on its own registry at every [/metrics] scrape
    and [/stats] snapshot, so the exported values are read-fresh without
    a sampling thread. *)

val page_size : unit -> int
(** The system page size in bytes, probed once via [getconf PAGESIZE]
    (sysconf); 4096 when the probe fails.  Exposed for tests. *)

val rss_bytes : ?path:string -> unit -> int option
(** Resident set size in bytes ([path] defaults to [/proc/self/statm];
    resident pages × {!page_size}); [None] when the file is missing,
    empty, or malformed. *)

val open_fds : ?fd_dir:string -> unit -> int option
(** Number of open file descriptors ([fd_dir] defaults to
    [/proc/self/fd]; one directory entry per descriptor, including the
    one opened for the probe itself); [None] when the directory cannot
    be read. *)

val threads_total : ?stat:string -> unit -> int option
(** Thread count of this process ([stat] defaults to [/proc/self/stat];
    the num_threads field, parsed after the last [')'] so a comm name
    containing spaces cannot shift the fields); [None] when the file is
    missing, truncated, or malformed. *)

val sample :
  r:Metrics.t -> ?uptime_s:float -> ?statm:string -> ?fd_dir:string ->
  ?stat:string -> unit -> unit
(** Set the self-metric gauges ([xmorph_uptime_seconds],
    [xmorph_rss_bytes], [xmorph_open_fds], [xmorph_threads_total], and
    the GC gauges) in [r]; procfs-backed gauges are left
    unset when their source is unreadable.  [uptime_s] overrides the
    process-start-based uptime (the serve daemon passes its own listener
    uptime); [statm]/[fd_dir]/[stat] override the procfs paths
    (tests). *)
