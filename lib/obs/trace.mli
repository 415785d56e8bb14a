(** Spans and the bounded recorder that keeps them.

    A span records a named region of work: monotonic start, duration, the
    parent span open when it started, and key/value attributes.  Completed
    spans land in a bounded ring ({!Xmutil.Ring}), so a long run can never
    exhaust memory.  {!json_of_entries} renders spans as Chrome
    [trace_event] JSON (load at [chrome://tracing] or ui.perfetto.dev).

    There is no process-global recorder.  Each request context ({!Ctx})
    owns one, and the context is the only span sink: the CLI's [--trace]
    installs one for the whole command, the serve daemon one per
    request. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float;  (** microseconds since the trace epoch *)
  mutable dur_us : float;
  mutable attrs : (string * value) list;
}

(** A span recorder: a bounded ring of committed spans, the stack of
    open spans, the next span id, and the epoch that timestamps count
    from.  Not synchronised: one writer at a time. *)
module Recorder : sig
  type t

  val create : capacity:int -> epoch:float -> t
  (** An empty recorder keeping at most [capacity] spans, timestamped
      in microseconds since [epoch] (Unix time).  Slots are allocated as
      spans arrive. *)

  val with_span :
    ?attrs:(string * value) list -> t -> string -> (unit -> 'a) -> 'a
  (** [with_span r name f] runs [f] inside a span named [name]; the span
      closes (and is committed to the ring) when [f] returns or raises.
      Nested calls record their parent. *)

  val add_attr : t -> string -> value -> unit
  (** Attach an attribute to the innermost open span, if any. *)

  val entries : t -> span list
  (** Ring contents, oldest first (in order of closing). *)
end

val json_of_entries : span list -> Xmutil.Json.t
(** Chrome [trace_event]-format JSON ([traceEvents] of 'X' complete
    events, timestamps and durations in microseconds).  The one exporter
    behind [--trace] files, [/debug/trace/<id>] responses and incident
    bundles ({!Flight}). *)
