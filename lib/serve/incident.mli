(** Offline incident-bundle viewer ([xmorph incident]).

    Parses and validates the versioned JSON bundles written by the
    flight recorder ({!Xmobs.Flight}), renders a post-mortem report
    (trigger header, context summary, recent-query table, span
    timeline); {!Stats.cross_reference} joins its [qlog] against an
    operator-statistics warehouse. *)

type t = {
  version : int;
  kind : string;  (** trigger kind: slo-breach, error-rate, signal, manual *)
  reason : string;
  ts_ms : int;  (** trigger time, Unix milliseconds *)
  trace_events : Xmutil.Json.t list;  (** Chrome trace_event records *)
  qlog : Xmobs.Qlog.entry list;  (** recent queries, oldest first *)
  qlog_malformed : int;  (** [qlog] records that failed to parse *)
  json : Xmutil.Json.t;  (** the whole bundle, verbatim *)
}

val of_json : Xmutil.Json.t -> t
(** @raise Failure when the bundle is missing a required section, a
    section is mistyped, or the version is unsupported. *)

val check : string -> (t, string) result
(** [--check]: load, validate required sections, version, and the
    trigger kind; [Error message] instead of an exception. *)

val to_text : t -> string
(** The rendered report. *)
