(** The pipeline's layer spans, and the on-disk sinks their owner holds.

    [phase name f] is a span around [f] in the calling thread's installed
    request context ({!Ctx}), if any; the span carries the store I/O
    charged under it ({!Ctx.with_span}).  It consults nothing else: a
    layer's latency is its span's duration.  With no context installed
    anywhere it is one atomic load and a tail call. *)

val phase : ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a

type sinks = {
  qlog : Qlog.t option;  (** [--qlog]: one record per execution *)
  statdb : Statdb.t option;
      (** [--stats-db]: each execution's operator frames are recorded *)
}
(** The on-disk sinks an execution writes, [None] for a sink that is off.
    The CLI builds one record per command and registers its flushes on
    {!Shutdown}; the serve daemon hands its own to every request. *)

val no_sinks : sinks
