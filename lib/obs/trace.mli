(** Spans and their exporter.

    A span is a closed layer region of a request context ({!Ctx.region}):
    its start, duration, the parent span open when it started, and
    key/value attributes.  The context is the only span sink and keeps
    its spans in a bounded ring ({!Xmutil.Ring}): the CLI's [--trace]
    creates one for the whole command, the serve daemon one per
    request.  {!json_of_entries} renders spans as Chrome [trace_event]
    JSON (load at [chrome://tracing] or ui.perfetto.dev). *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;
  attrs : (string * value) list;  (** newest first *)
}

val json_of_entries : span list -> Xmutil.Json.t
(** Chrome [trace_event]-format JSON ([traceEvents] of 'X' complete
    events, timestamps and durations in microseconds).  The one exporter
    behind [--trace] files, [/debug/trace/<id>] responses and incident
    bundles ({!Flight}). *)
