(** Facade over {!Trace}, {!Metrics}, and request contexts ({!Ctx}).

    [phase name f] is the one-liner the pipeline uses: a span around [f]
    plus, when metrics are on, a [phase.<name>.seconds] latency histogram
    observation and a [phase.<name>.count] bump.  The span is recorded
    into the calling thread's installed request context when there is one
    and into the global tracer otherwise.  With everything off it is two
    branches and a tail call. *)

val phase : ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a
