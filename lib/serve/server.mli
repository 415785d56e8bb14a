(** The [xmorph serve] daemon: a long-running HTTP listener over one or
    more shredded stores.

    Endpoints:
    - [GET /healthz] — [200 ok]; with SLO objectives it ticks the {!Slo}
      rules and answers [503] naming each breached objective, with a 2 s
      recovery hold against flapping.
    - [GET /metrics] — Prometheus text from the global {!Xmobs.Metrics}
      registry (enabled at startup), including the labeled families
      [xmorph_requests_total{route,status}] (every route),
      [xmorph_query_seconds{doc,outcome}] and [xmorph_guard_seconds{guard}]
      (bounded cardinality).
    - [GET /debug/timeseries] — the rolling per-second request, error,
      query and block-I/O windows over [window] seconds, with rates and
      windowed percentiles, SLO status, and the top guards by time.
    - [GET /stats] — uptime, request and outcome counts, the loaded
      stores, and the full metrics dump.
    - [POST /query] — the body is a guard; the response is the rendered
      XML, byte-identical to [xmorph run].  [?doc=NAME] selects a store;
      [?query=XQUERY] runs a guarded XQuery query on the reshaped data
      ([xmorph query] semantics).
    - [POST /update] — the body is a node's new text value,
      [?doc=NAME&node=ID] the target.  {!Store.Shredded.update_values}
      builds the new store, swapped in atomically; only the {!Xmcache}
      bodies of guards that read the written node's type die.  Answers
      the new generation as JSON.
    - [GET /debug/cache] — the {!Xmcache} introspection document.
    - [GET /debug/requests], [GET /debug/trace/<trace-id>] — recently
      completed [POST /query] requests ({!Xmobs.Ctx} ring), newest first;
      one request's span tree as Chrome [trace_event] JSON, its query
      record, and its slow-query profile when one was captured.
    - [GET /debug/incidents], [GET /debug/incidents/<name>],
      [POST /debug/incident] — the recorder's retained bundles and its
      directory; one bundle verbatim (only names the recorder writes);
      a [manual] bundle now, cooldown bypassed, the body as its reason
      ([503] without a recorder).
    - [GET /debug/alerts], [GET /debug/opstats] — the alert evaluator's
      rule states, transitions and webhook counters; the statistics
      warehouse.  Each is [{"enabled": false}] when off.

    Sinks: a server holds its own.  Every request writes one
    {!Xmobs.Qlog} record to [sinks]'s query log and its frames to its
    warehouse; the flight recorder ([incident_dir]) and the alert
    evaluator ([alerts]) are created with the server and stopped with
    it.  Two servers in one process share none of them.

    Flight recorder: every bundle carries the server's context (config,
    store generations, cache introspection, rolling windows, SLO and
    alert state, the completed-request ring).  Bundles are written on
    the SLO healthy→degraded edge (the SLO rules are then also ticked
    after each query), on a window where internal/parse-error outcomes
    dominate (≥ 10 failures and > 50% of windowed queries), on a firing
    alert rule, on [POST /debug/incident], and when the process dies on
    SIGTERM/SIGINT ({!on_signal}).  The per-query checks run after the
    request is finished into the completed-request ring, so a bundle
    they write includes the request that tripped it.

    One record per request: every per-request metric family and window
    is written once, from the request's status and wall time and, for a
    [POST /query], from the completed {!Xmobs.Ctx} entry its context was
    sealed into.  Every [POST /query] runs under a fresh {!Xmobs.Ctx},
    honoring a well-formed W3C [traceparent] header, and the response
    carries [traceparent] and [x-xmorph-trace-id].  With [slow_ms] set,
    a request whose wall time meets the threshold is re-executed once
    under the per-operator profiler, in a context of its own, and the
    frames are sealed into its ring entry (plus a [<trace-id>.json]
    artifact under [slow_log]).

    Concurrency: [workers] long-lived threads, all on one domain, each
    accepting on the shared listening socket and serving one connection
    (one request) at a time.  Further clients wait in the kernel's
    accept queue.  An exception escaping one connection closes that
    connection, never its worker. *)

type t

val create :
  ?sinks:Xmobs.Obs.sinks ->
  ?addr:string ->
  ?port:int ->
  ?workers:int ->
  ?slow_ms:float ->
  ?slow_log:string ->
  ?window:int ->
  ?slo_p95_ms:float ->
  ?slo_error_rate:float ->
  ?incident_dir:string ->
  ?incident_keep:int ->
  ?alerts:Xmobs.Alerts.config ->
  stores:(string * Store.Shredded.t) list ->
  unit ->
  t
(** Bind and listen.  [sinks] defaults to none.  [addr] is a numeric
    IPv4 address or [localhost] (loopback), and defaults to [127.0.0.1];
    [port] 0 (the default) picks an ephemeral port (read it back with
    {!port});
    [workers] defaults to 4 (clamped to [1..64]).  [slow_ms] enables
    slow-query auto-capture at the given wall-time threshold in
    milliseconds (0 captures everything); [slow_log] names a directory
    for per-capture profile artifacts (created on first use).  [window]
    (default 60, clamped to [1..3600] seconds) is the span of
    [/debug/timeseries] and the {!Slo} rules; [slo_p95_ms] and
    [slo_error_rate] are the health objectives.  Every executed query is
    fed once into one {!Xmobs.Alerts.stream}, sized [max window (longest
    alert-rule window + 5)], which all of these read.
    [incident_dir] gives the server a flight recorder writing there
    (created if missing); [incident_keep] (default 16) bounds the
    bundles retained.  [alerts] starts an {!Xmobs.Alerts} evaluator over
    the same stream, posting its webhook with {!Http}.  [stores] must be
    non-empty; the first store is the default [?doc=] target.
    @raise Invalid_argument on an empty store list
    @raise Unix.Unix_error when [addr] is neither, or the address cannot
    be bound; the socket is closed first.
    @raise Sys_error naming [incident_dir] when it cannot be created or
    written; the socket is closed first. *)

val port : t -> int
val addr : t -> string

val run : t -> unit
(** Serve until {!stop} (or process exit).  Blocks the calling thread:
    starts the workers and, after {!stop}, joins them and closes the
    listening socket.  Call it once; on a server already stopped it
    returns at once. *)

val start : t -> unit
(** Spawn {!run} on a background thread (used by tests). *)

val stop : t -> unit
(** Shut the listening socket down, so no connection is accepted after
    it, and stop reading from the connections whose request has not
    arrived (a client that holds a connection open and sends nothing
    cannot delay it).  Requests already read are answered.  When
    {!start} spawned {!run}, returns after {!run} has; otherwise it does
    not wait.  On a server that never ran it closes the listening socket
    itself.  Stops the server's alert evaluator first. *)

val on_signal : t -> int -> unit
(** Write a [signal] incident bundle for dying on termination signal [n]
    (OCaml's [Sys] encoding), cooldown bypassed, when the server has a
    flight recorder.  [xmorph serve] calls it before it exits on
    SIGTERM/SIGINT. *)
