(** The sinks a command or daemon owns.  A layer's latency is its
    region's span ({!Ctx.region}); the sinks below hold what is kept
    across executions. *)

type sinks = {
  qlog : Qlog.t option;  (** [--qlog]: one record per execution *)
  statdb : Statdb.t option;
      (** [--stats-db]: each execution's operator frames are recorded *)
  metrics : Metrics.t option;
      (** [--metrics]: the registry executions write their render and
          store series to *)
}
(** The sinks an execution writes, [None] for a sink that is off.  The
    CLI builds one record per command and registers its flushes on
    {!Shutdown}; the serve daemon hands its own to every request, with
    its registry in [metrics].  A request context ({!Ctx}) is no sink:
    a daemon's sinks are shared by all its workers, while a context
    belongs to one request and is handed to its execution apart. *)

val no_sinks : sinks
