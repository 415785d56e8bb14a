(** Facade over request contexts ({!Ctx}) and {!Metrics}.

    [phase name f] is the one-liner the pipeline uses: a span around [f]
    in the calling thread's installed request context, if any, plus,
    when metrics are on, a [phase.<name>.seconds] latency histogram
    observation and a [phase.<name>.count] bump.  The span carries the
    store I/O charged under it ({!Ctx.with_span}).  With neither on it is
    two branches and a tail call. *)

val phase : ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a
