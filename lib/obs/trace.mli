(** Span-based tracing with a bounded ring-buffer sink.

    A span records a named region of work: monotonic start, duration, the
    parent span open when it started, and key/value attributes.  Completed
    spans and instantaneous events land in a bounded ring ({!Xmutil.Ring}),
    so a long run can never exhaust memory.  Exporters render the ring as an
    indented text tree ({!to_text}) or as Chrome [trace_event] JSON
    ({!to_json}; load at [chrome://tracing] or ui.perfetto.dev).

    The recording itself is a {!Recorder}: the process-global tracer
    behind {!with_span} is one, and each request context ({!Ctx}) owns
    another.

    Tracing is off by default and every entry point checks a single
    atomic flag, so instrumented pipelines pay one branch — and allocate
    nothing — when disabled. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float;  (** microseconds since the trace epoch *)
  mutable dur_us : float;
  mutable attrs : (string * value) list;
}

type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_parent : int;
  ev_counter : bool;
      (** a Chrome 'C' counter sample rather than an instant event *)
  ev_attrs : (string * value) list;
}

type entry = Span of span | Event of event

(** A span recorder: a bounded ring of committed entries, the stack of
    open spans, the next span id, and the epoch that timestamps count
    from.  Not synchronised; the global tracer tolerates racing domains
    because a racing {!Xmutil.Ring.push} only loses entries. *)
module Recorder : sig
  type t

  val create : capacity:int -> epoch:float -> t
  (** An empty recorder keeping at most [capacity] entries, timestamped
      in microseconds since [epoch] (Unix time).  Slots are allocated as
      entries arrive. *)

  val with_span :
    ?attrs:(string * value) list -> t -> string -> (unit -> 'a) -> 'a
  (** [with_span r name f] runs [f] inside a span named [name]; the span
      closes (and is committed to the ring) when [f] returns or raises.
      Nested calls record their parent. *)

  val add_attr : t -> string -> value -> unit
  (** Attach an attribute to the innermost open span, if any. *)

  val entries : t -> entry list
  (** Ring contents, oldest first. *)
end

val enable : ?capacity:int -> unit -> unit
(** Start a fresh global recorder keeping up to [capacity] entries
    (default 32768). *)

val disable : unit -> unit
(** Stop recording; the buffer is retained for export. *)

val tracing : unit -> bool

val reset : unit -> unit
(** Clear the buffer, keeping the enabled/disabled state. *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** {!Recorder.with_span} on the global recorder; just [f ()] while
    tracing is off. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span, if any. *)

val instant : ?attrs:(string * value) list -> string -> unit
(** Record an instantaneous event under the current span. *)

val counter : string -> (string * value) list -> unit
(** Record a counter-track sample (e.g. cumulative I/O blocks over time). *)

val spans : unit -> span list
(** Completed spans currently in the ring, ordered by start time. *)

val events : unit -> event list

val entries : unit -> entry list
(** Ring contents, oldest first. *)

val json_of_entries : entry list -> Xmutil.Json.t
(** Chrome [trace_event]-format JSON over an explicit entry list — the
    exporter behind {!to_json}, shared with per-request contexts
    ({!Ctx}) and incident bundles ({!Flight}), so [--trace] files,
    [/debug/trace/<id>] responses and bundles are produced by the same
    code. *)

val to_json : unit -> Xmutil.Json.t
(** Chrome [trace_event]-format JSON ([traceEvents] with 'X'/'C'/'i'
    phases, timestamps and durations in microseconds). *)

val to_text : unit -> string
(** Indented span tree with durations, attributes, and inline events. *)
