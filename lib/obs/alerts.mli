(** Alerting: declarative rules over the served query stream, with
    pending→firing→resolved state machines and pluggable delivery.

    The serving stack is fully instrumented but pull-based — someone must
    already be watching [/metrics] or [xmorph top].  This module is the
    push half: a rule {!engine} reads a query {!stream} (fed once per
    executed query by the daemon), evaluates threshold rules
    ([err_rate > X], [p95_ms > Y]) and SRE-style multi-window burn-rate
    rules against an SLO error budget, and drives one hysteresis state
    machine per rule.  Edge events — a rule starts {e firing}, a firing
    rule {e resolves} — fan out to sinks: a JSONL alert log, an outbound
    webhook (injected by the serve layer, with bounded retry and a drop
    counter — delivery failure never blocks serving), the owner's firing
    callback (the serve daemon lands an incident bundle per firing
    alert), and the owner's metrics registry
    ([xmorph_alerts_total{rule,state}], [xmorph_alerts_firing]).  A
    started evaluator ({!start}) is a value its owner holds and
    {!stop}s; two servers in one process each run their own.

    Streams take injectable clocks so the state-machine timing is
    unit-testable in synthetic time, and so the offline backtester
    ([xmorph alerts RULES LOG.jsonl]) can replay a qlog through the very
    same evaluator. *)

(** {2 Rules} *)

type condition =
  | Err_rate of { above : float; window_s : int }
      (** error fraction over the last [window_s] seconds exceeds
          [above] (a ratio in [0,1]). *)
  | P95_ms of { above : float; window_s : int }
      (** p95 latency in milliseconds over the last [window_s] seconds
          exceeds [above]. *)
  | Burn_rate of {
      objective : float;  (** budgeted error fraction, e.g. 0.001 *)
      factor : float;  (** burn multiple both windows must exceed *)
      fast_s : int;  (** fast window, canonically 60 *)
      slow_s : int;  (** slow window, canonically 1800 *)
    }
      (** multi-window burn rate: the error budget is burning more than
          [factor] times too fast over {e both} the fast and the slow
          window.  The fast window makes the alert react in minutes; the
          slow window keeps a brief blip from paging. *)

type rule = {
  name : string;  (** unique, non-empty; the [rule] metric label *)
  cond : condition;
  for_s : float;
      (** hysteresis: the condition must hold this long before the rule
          fires (0 = fire on first true evaluation). *)
  min_count : int;
      (** minimum traffic in the rule's (fast) window before it is
          judged at all — no-traffic seconds never fire. *)
}

(** {2 Transitions} *)

type edge = Firing | Resolved

val edge_to_string : edge -> string
(** [firing] / [resolved] — the [state] label on
    [xmorph_alerts_total]. *)

type transition = {
  rule : string;
  at : float;  (** engine-clock time of the edge *)
  edge : edge;
  value : float;  (** observed value at the edge (ratio, ms, or burn) *)
  reason : string;  (** human-readable, e.g. ["err_rate 0.50 > 0.10"] *)
}

val transition_to_json : transition -> Xmutil.Json.t

(** {2 Rule files} *)

type config = {
  interval_s : float;  (** evaluator pacing (default 1.0) *)
  log : string option;  (** JSONL alert-log path *)
  webhook : string option;  (** POST each transition here *)
  webhook_timeout_s : float;  (** per-attempt timeout (default 2.0) *)
  webhook_retries : int;  (** attempts after the first (default 2) *)
  rules : rule list;
}

val version : int
(** Rule-file format version; the file's [xmorph_alerts] field must
    match. *)

val config_of_json : Xmutil.Json.t -> (config, string) result

val load : string -> (config, string) result
(** Read and validate a rules file.  Callers pick the failure policy:
    the serve daemon warns once on stderr and runs with alerting
    disabled (like a corrupt stats warehouse); the offline backtester
    treats it as a hard error. *)

(** {2 The query stream} *)

type stream
(** One windowed record of executed queries: a latency histogram (its
    count is the query total), a non-ok counter, and an
    internal/parse-error counter. *)

val stream : ?clock:(unit -> float) -> ?window:int -> rule list -> stream
(** A ring of [max window (longest rule window + 5)] seconds ([window]
    defaults to 1).  [clock] (default [Unix.gettimeofday]) also drives
    every engine reading the stream. *)

val feed : stream -> outcome:Qlog.outcome -> wall_s:float -> unit
(** Count one executed query: one latency write, plus the counters its
    outcome belongs to.  Thread-safe; O(1). *)

val latency : stream -> Timeseries.t
val failures : stream -> Timeseries.t

(** {2 The engine} — shared by the live evaluator, the serve daemon's
    SLO health rules, and the backtester. *)

type engine

val rule_window : rule -> int
(** The longest trailing window the rule reads. *)

val engine : ?ring:int -> ?hold_s:float -> stream -> rule list -> engine
(** One state machine per rule over [stream], and a bounded ring
    ([ring], default 64) of recent transitions.  A firing rule resolves
    once [hold_s] (default 0) has passed since the last tick that found
    its condition true. *)

val tick : ?deliver:(transition list -> unit) -> engine -> transition list
(** One evaluation pass: judge every rule, step the state machines, hand
    this pass's edges (in rule order) to [deliver], and return them.
    Passes are serialized per engine, so concurrent callers never step a
    machine with a stale judgment; [deliver] runs outside the state
    lock, so a sink that re-enters (e.g. [Flight.trigger] snapshotting
    alert state) cannot deadlock — but it must not tick. *)

type held = {
  h_rule : rule;
  h_now : bool;  (** the condition held at the last tick *)
  h_value : float;  (** the value observed then *)
  h_quiet_s : float;  (** seconds since it last held *)
}

val firing_rules : engine -> held list
(** The firing rules, in rule order, read without ticking. *)

val states : engine -> (string * string) list
(** Per-rule live state, in rule order: [ok], [pending], or
    [firing]. *)

val recent : engine -> transition list
(** The transitions ring, oldest first. *)

val engine_to_json : engine -> Xmutil.Json.t
(** [{rules: [{name, state, value, reason}], transitions: [...]}] —
    the core of [GET /debug/alerts]. *)

(** {2 The started evaluator} *)

type t

type sender =
  url:string -> timeout_s:float -> body:string -> (unit, string) result
(** One outbound POST attempt.  The serve layer builds one on its own
    HTTP client — keeping [xmobs] below [serve] in the dependency stack.
    The evaluator owns bounded retry and counts exhausted deliveries in
    {!webhook_drops} (and [xmorph_alert_webhook_drops_total]). *)

val start :
  ?send:sender -> ?on_firing:(transition -> unit) -> metrics:Metrics.t ->
  stream -> config -> t
(** Build an engine over [stream] from [config.rules] and start a ticker
    thread pacing {!tick} every [config.interval_s] seconds, delivering
    transitions to the configured sinks: the alert log, the webhook
    through [send] (no webhook without one), [on_firing] for each rule
    that starts firing, and the [metrics] registry. *)

val stop : t -> unit
(** Stop the ticker (joins it).  Idempotent. *)

val tick_now : t -> unit
(** Force one evaluation-and-delivery pass outside the timer. *)

val firing : t -> int
(** Rules currently in the firing state (the [xmorph_alerts_firing]
    gauge). *)

val webhook_drops : t -> int
(** Webhook deliveries dropped after exhausting retries. *)

val to_json : t -> Xmutil.Json.t
(** {!engine_to_json} plus sink state (log path, webhook URL, drop
    counter), and ["enabled"]: [true] until {!stop}. *)
