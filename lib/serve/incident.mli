(** Offline incident-bundle viewer ([xmorph incident]).

    Parses and validates the versioned JSON bundles written by the
    flight recorder ({!Xmobs.Flight}), renders a post-mortem report
    (trigger header, context summary, recent-query table, span
    timeline), and cross-references the bundle's guard hashes against an
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

val load : string -> t
(** Read and parse a bundle file.
    @raise Sys_error when the file cannot be read.
    @raise Failure on a malformed bundle (including invalid JSON). *)

val check : string -> (t, string) result
(** [--check]: load, validate required sections, version, and the
    trigger kind; [Error message] instead of an exception. *)

val to_text : t -> string
(** The rendered report. *)

val timeline : ?limit:int -> t -> string
(** The span/event timeline section alone ([limit] bounds the rows
    shown, keeping the most recent; default 40). *)

val cross_reference : db:Xmobs.Statdb.t -> t -> Stats.guard_stats list
(** Join the bundle's recent queries against warehouse history by guard
    hash ({!Stats.cross_reference}). *)

val cross_reference_to_text : ?top_ops:int -> Stats.guard_stats list -> string
