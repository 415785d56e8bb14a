(** SLO-aware health: [--slo-error-rate] and [--slo-p95-ms] as an
    [Err_rate] and a [P95_ms] rule (in that order) over the last
    [window] seconds of the query stream, with a 5-query floor, on an
    {!Xmobs.Alerts.engine} whose firing rules resolve after a 2 s hold. *)

type t

val create :
  ?p95_ms:float ->
  ?error_rate:float ->
  ?on_breach:(string list -> unit) ->
  window:int ->
  Xmobs.Alerts.stream ->
  t option
(** [None] when no objective is set.  [on_breach] hears the
    healthy→degraded edge — the tick that takes the engine from no rule
    firing to some — once per incident, with the breach reasons; its
    exceptions are swallowed.  The daemon wires it to the flight
    recorder. *)

val evaluate : t -> string list
(** Tick the rules (serialized with any concurrent tick) and return the
    verdict: [[]] when healthy, otherwise each breached objective and by
    how much, or one ["recovering (…)"] line while the hold is in
    force. *)

val to_json : t -> Xmutil.Json.t
(** [{status, reasons, objectives}] for /debug/timeseries; evaluates. *)

val snapshot_json : t -> Xmutil.Json.t
(** {!to_json} without ticking, so it never fires [on_breach]: whether a
    rule is firing.  Incident bundles embed this. *)
