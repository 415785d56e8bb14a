(** The flight recorder: always-on black-box capture for incident
    forensics.

    A recorder is a value its owner holds: the serve daemon creates one
    per server for [--incident-dir], over the server's own metrics
    registry and request ring, and a daemon without one has no recorder.
    A bounded ring holds periodic snapshots of the registry.  A
    {!trigger} — SLO breach, error-rate threshold, fatal signal, or a
    manual request — atomically writes them, a view of the owner's
    finished requests ({!Ctx.finished}) and the owner's context as a
    versioned JSON incident bundle under the recorder's directory, with
    bounded retention.  The view is the requests' query
    records ([qlog], oldest first) and their spans ([trace], at most 2048
    spans, newest kept), so the bundle covers exactly the requests the
    owner's ring holds.  The recorder keeps no spans or query records of its
    own.  A snapshot feed costs one short mutex-protected clock
    comparison. *)

val version : int
(** Bundle format version, written as the top-level ["version"] field. *)

type trigger_kind =
  | Slo_breach  (** the SLO judge flipped to degraded *)
  | Error_rate  (** internal/parse-error outcomes crossed the threshold *)
  | Signal  (** the process is dying on SIGTERM/SIGINT *)
  | Manual  (** [POST /debug/incident] *)
  | Alert  (** an {!Alerts} rule started firing *)

val kind_to_string : trigger_kind -> string
(** [slo-breach], [error-rate], [signal], [manual], [alert] — the value
    of the bundle's [trigger.kind] field and of the [trigger] label on
    [xmorph_incidents_total]. *)

val kinds : string list
(** {!kind_to_string} of every trigger kind, in declaration order: the
    one list bundle validation and dashboards enumerate. *)

type t

val create :
  ?retention:int ->
  ?cooldown_s:float ->
  ?context:(unit -> Xmutil.Json.t) ->
  requests:(unit -> Ctx.finished list) ->
  metrics:Metrics.t ->
  dir:string ->
  unit ->
  (t, string) result
(** A recorder writing bundles under [dir], which is created when
    missing.  [Error] names [dir] and why when it cannot be created, is
    not a directory, or cannot be written.  [retention] (default 16)
    bounds how many bundles are kept on disk — oldest deleted first;
    [cooldown_s] (default 30) suppresses repeat triggers of the same
    kind.  [context]'s result becomes each bundle's ["context"] field
    (default [null]; a callback that raises yields [null]): the serve
    daemon injects store generations, cache introspection, config, SLO
    state, and the request summaries here, keeping [xmobs] below [serve]
    in the dependency stack.  [requests] gives the owner's finished
    requests, newest first: each bundle's [qlog] and [trace].  [metrics] is the registry snapshotted, bundled, and bumped
    on each bundle. *)

val snapshot : t -> unit
(** Snapshot the registry when the last snapshot is at least a second
    old.
    The serve daemon calls it after each query. *)

val trigger :
  t ->
  ?force:bool ->
  kind:trigger_kind ->
  reason:string ->
  unit ->
  string option
(** Write an incident bundle now.  Returns the bundle file name, or
    [None] when the same kind fired within the cooldown ([force] bypasses
    the cooldown — used for [signal] and [manual]) or the write failed (a
    full disk must not take the serving path down).  Bumps
    [xmorph_incidents_total{trigger=...}] and enforces the retention
    bound. *)

val incidents : t -> (string * int) list
(** Bundle files currently retained, oldest first, with sizes in
    bytes. *)

val dir : t -> string
(** The incident directory. *)
