(** The flight recorder: always-on black-box capture for incident
    forensics.

    While enabled, a bounded ring holds periodic metric snapshots.  A
    {!trigger} — SLO breach, error-rate threshold, fatal signal, or a
    manual request — atomically writes them, a view of the
    completed-request ring ({!Ctx.completed}) and injected server
    context as a versioned JSON incident bundle under the configured
    directory, with bounded retention.  The view is the requests' query
    records ([qlog], oldest first) and their spans ([trace], at most 2048
    entries, newest kept), so the bundle covers exactly the requests the
    ring holds.  The recorder keeps no spans or query records of its own
    and leaves {!Trace} alone.

    The standard [Xmobs] contract: {!enabled} is a single atomic load
    and every entry point allocates nothing when the recorder is off
    (pinned by the Gc test); when on, a snapshot feed costs one short
    mutex-protected clock comparison. *)

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

val enable : ?retention:int -> ?cooldown_s:float -> dir:string -> unit -> unit
(** Turn the recorder on, writing bundles under [dir] (created if
    missing).  [retention] (default 16) bounds how many bundles are kept
    on disk — oldest deleted first; [cooldown_s] (default 30) suppresses
    repeat triggers of the same kind.  Registers a {!Shutdown} hook that
    writes a [signal] bundle when the process dies on a termination
    signal. *)

val disable : unit -> unit

val enabled : unit -> bool
(** One atomic load. *)

val snapshot : unit -> unit
(** Take a metric snapshot when the last one is at least a second old.
    The serve daemon calls it after each query; a no-op (zero
    allocation) when the recorder is off. *)

val set_context_provider : (unit -> Xmutil.Json.t) -> unit
(** Install the callback whose result becomes the bundle's ["context"]
    field.  The serve daemon injects store generations, cache
    introspection, config, SLO state, and the request ring here —
    keeping [xmobs] below [serve] in the dependency stack.  A provider
    that raises yields [null]. *)

val trigger :
  ?force:bool -> kind:trigger_kind -> reason:string -> unit -> string option
(** Write an incident bundle now.  Returns the bundle file name, or
    [None] when the recorder is off, the same kind fired within the
    cooldown ([force] bypasses the cooldown — used for [signal] and
    [manual]), or the write failed (a full disk must not take the
    serving path down).  Bumps [xmorph_incidents_total{trigger=...}] and
    enforces the retention bound. *)

val incidents : unit -> (string * int) list
(** Bundle files currently retained, oldest first, with sizes in
    bytes. *)

val dir : unit -> string option
(** The incident directory, when the recorder is enabled. *)
