(** The [xmorph serve] daemon: a long-running HTTP listener over one or
    more shredded stores.

    Endpoints:
    - [GET /healthz] — liveness, SLO-aware when objectives are
      configured: ticks the {!Slo} rules, [200 ok] while the query
      stream meets every objective, [503] with a body naming each
      breached objective (and by how much) otherwise; a 2 s recovery
      hold keeps the health signal from flapping.
    - [GET /metrics] — Prometheus text exposition rendered from the
      global {!Xmobs.Metrics} registry (the server enables metrics at
      startup), including per-request serve counters, latency
      histograms, and the labeled families
      [xmorph_requests_total{route,status}] (every route, monitoring
      scrapes included), [xmorph_query_seconds{doc,outcome}], and
      [xmorph_guard_seconds{guard}] (per guard hash, bounded
      cardinality).
    - [GET /debug/timeseries] — JSON dump of the rolling per-second
      windows over [window] seconds: request/error/query/block-I/O
      series with rates and windowed percentiles, SLO status (ticked)
      when configured, and the top guards by cumulative time.
    - [GET /stats] — a JSON snapshot: uptime, request/outcome counts
      (requests summed over [xmorph_requests_total]), the loaded stores,
      and the full metrics dump.
    - [POST /query] — body is a guard; the response is the rendered XML,
      byte-identical to [xmorph run] for the same guard and document.
      [?doc=NAME] selects a store by name when several are served;
      [?query=XQUERY] additionally runs a guarded XQuery query against
      the reshaped data ([xmorph query] semantics).  Every request writes
      one {!Xmobs.Qlog} record.
    - [POST /update] — body is a node's new text value;
      [?doc=NAME&node=ID] selects the target.  Applies
      {!Store.Shredded.update_values} and atomically swaps the served
      store, so later queries see the new value; the {!Xmcache} result
      entries of guards that read the written node's type die by key
      mismatch, and the others stay live.  Responds with the new store
      generation as JSON.
    - [GET /debug/cache] — the {!Xmcache} introspection document:
      per-tier entries, hits/misses/evictions and hit rate, byte budget
      and resident bytes; [{"enabled": false}] when serving uncached.
    - [GET /debug/requests] — JSON summaries of recently completed
      [POST /query] requests, newest first ({!Xmobs.Ctx} ring).
    - [GET /debug/trace/<trace-id>] — one completed request's full span
      tree as Chrome [trace_event] JSON (the same exporter as [--trace]),
      its query record as [query] ([null] when it executed nothing), and
      the slow-query profile when one was captured.
    - [GET /debug/incidents] — the flight recorder's retained incident
      bundles (name and size), plus the incident directory.
    - [GET /debug/incidents/<name>] — fetch one bundle verbatim (names
      are validated against the recorder's own naming scheme; no path
      traversal).
    - [POST /debug/incident] — force an incident bundle now ([manual]
      trigger, cooldown bypassed); the body, if any, becomes the
      recorded reason.  [503] when the recorder is off.
    - [GET /debug/alerts] — live {!Xmobs.Alerts} state: per-rule state
      machine positions, last observed values, the recent-transitions
      ring, and webhook delivery/drop counters;
      [{"enabled": false}] when no rules file was given.

    Flight recorder: [incident_dir] enables {!Xmobs.Flight}, injects the
    server's context (config, store generations, cache introspection,
    rolling windows, SLO state, the completed-request ring) into every
    bundle, and wires the SLO healthy→degraded edge as a trigger (the
    SLO rules are then also ticked after each query).  A window where
    internal/parse-error outcomes dominate (≥ 10 failures and > 50% of
    windowed queries) fires an [error-rate] bundle even without SLO
    objectives.  Both per-query checks run after the request is
    finished into the completed-request ring, so a bundle they write
    includes the request that tripped it.  Bundles are also written when the process dies on
    SIGTERM/SIGINT ({!Xmobs.Shutdown} hook) and on
    [POST /debug/incident]; [xmorph_incidents_total{trigger}] counts
    them.

    One record per request: every per-request metric family and window
    is written once, from the request's status and wall time and, for a
    [POST /query], from the completed {!Xmobs.Ctx} entry its context was
    sealed into (its I/O, and its query record's doc, outcome, guard
    hash and wall time).

    Per-request telemetry: every [POST /query] runs under a fresh
    {!Xmobs.Ctx} — honoring a well-formed W3C [traceparent] request
    header, generating a fresh trace id otherwise — and the response
    carries [traceparent] and [x-xmorph-trace-id] headers.  With
    [?slow_ms] set, a request whose wall time meets the threshold is
    re-executed once under the per-operator profiler, in a context of
    its own (no lock: concurrent captures each get exactly their own
    frames), and the frames are sealed into its ring entry (plus a
    [<trace-id>.json] artifact under [?slow_log]).

    Concurrency: [workers] long-lived threads, all on one domain, each
    accepting on the shared listening socket and serving one connection
    (one request) at a time.  At most [workers] requests are in flight;
    further clients wait in the kernel's accept queue, which
    backpressures them instead of queueing unboundedly.  An exception
    escaping one connection closes that connection, never its worker. *)

type t

val create :
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
(** Bind and listen.  [addr] is a numeric IPv4 address or [localhost]
    (loopback), and defaults to [127.0.0.1]; [port] 0 (the
    default) picks an ephemeral port (read it back with {!port});
    [workers] defaults to 4 (clamped to [1..64]).  [slow_ms] enables
    slow-query auto-capture at the given wall-time threshold in
    milliseconds (0 captures everything); [slow_log] names a directory
    for per-capture profile artifacts (created on first use).  [window]
    (default 60, clamped to [1..3600] seconds) is the span of
    [/debug/timeseries] and the {!Slo} rules; [slo_p95_ms] and
    [slo_error_rate] are the health objectives.  Every executed query is
    fed once into one {!Xmobs.Alerts.stream}, sized [max window (longest
    alert-rule window + 5)], which all of these read.
    [incident_dir] enables the flight recorder with bundles written
    there (created if missing); [incident_keep] (default 16) bounds how
    many are retained.  [alerts] starts the {!Xmobs.Alerts} evaluator
    over the same query stream (rules, pacing, and sinks come from the
    config; the outbound-webhook primitive is injected here and each
    firing rule lands an [alert]-kind incident bundle when the recorder
    is on); {!stop} shuts the evaluator down.  [stores] must be
    non-empty; the first store is the default [?doc=] target.
    @raise Invalid_argument on an empty store list
    @raise Unix.Unix_error when [addr] is neither, or the address cannot
    be bound; the socket is closed first. *)

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
    itself. *)
