(* The serve daemon: a fixed pool of long-lived worker threads.

   Each of the [workers] threads loops on [Unix.accept] over the one
   listening socket, serves the connection it got (read one request,
   route it, write the response, close), and accepts again.  At most
   [workers] requests are in flight; past that, clients wait in the
   kernel's accept queue (backlog 64), so overload backpressures instead
   of growing a thread herd.  Handlers share the server's own metrics
   registry (counters/gauges are atomic or word-sized), its request ring
   (under its lock), the store's mutex-guarded caches, and the server's
   other mutex-guarded sinks, so no extra synchronization is needed
   here.  Each request gets a context of its own ([Xmobs.Ctx.create]),
   which the handler hands to every operation it runs and then finishes
   into the request ring; no context is looked up by thread, so none is
   shared between requests. *)

let now () = Unix.gettimeofday ()

(* Where a server is in its life: [run] moves it from [Idle] to
   [Running], [stop] from either to [Stopped]. *)
type life = Idle | Running | Stopped

type t = {
  s_addr : string;
  s_port : int;
  workers : int;
  stores : (string * Store.Shredded.t Atomic.t) list;
      (* The list (names, order) is fixed at create; each cell is
         swapped atomically by POST /update, so a request reads one
         coherent store value for its whole execution. *)
  update_lock : Mutex.t; (* serializes updates: swap = read-modify-write *)
  listen_fd : Unix.file_descr;
  started : float;
  life : life Atomic.t;
  reading : Unix.file_descr option array;
      (* per worker: the connection whose request it is reading, which
         [stop] shuts down so that an idle client cannot hold it *)
  reading_lock : Mutex.t;
  slow_ms : float option;
  slow_log : string option;
  (* rolling per-second windows behind GET /debug/timeseries, reported
     over [ts_window]; owned by the server so concurrent daemons — and
     tests — never share ring state *)
  ts_window : int;
  ts_requests : Xmobs.Timeseries.t; (* all HTTP requests, wall seconds *)
  ts_errors : Xmobs.Timeseries.t; (* responses with status >= 400 *)
  ts_blocks : Xmobs.Timeseries.t; (* store blocks touched (4 KiB units) *)
  stream : Xmobs.Alerts.stream;
      (* executed queries, fed once each: the dashboard's [queries] and
         [failures] series, the error-rate trigger, the SLO rules and
         the alert rules all read it *)
  slo : Slo.t option;
  sinks : Xmobs.Obs.sinks;
      (* the query log, warehouse and registry each request writes *)
  metrics : Xmobs.Metrics.t; (* the registry in [sinks]: /metrics, /stats *)
  requests : Xmobs.Ctx.finished Xmutil.Ring.t;
      (* finished /query requests: /debug/requests, /debug/trace/<id>,
         incident bundles *)
  requests_lock : Mutex.t;
  flight : Xmobs.Flight.t option; (* --incident-dir *)
  alerts : Xmobs.Alerts.t option; (* --alert-rules, stopped by [stop] *)
  mutable thread : Thread.t option;
}

(* Error-rate trigger thresholds: at least this many internal/parse-error
   outcomes in the window, and they must be the majority of the window's
   queries.  Deliberately coarser than any sane SLO error-rate objective,
   so a daemon run with --slo-error-rate hears the breach through the SLO
   edge first; this trigger is the safety net for daemons without one. *)
let failure_trigger_min = 10

let failure_trigger_frac = 0.5

let outcome_names = [ "ok"; "parse-error"; "type-mismatch"; "internal" ]

let json_ok j =
  Http.response ~content_type:"application/json" 200
    (Xmutil.Json.to_string j ^ "\n")

let disabled_json = Xmutil.Json.Obj [ ("enabled", Xmutil.Json.Bool false) ]

let alerts_json t =
  match t.alerts with Some a -> Xmobs.Alerts.to_json a | None -> disabled_json

(* The fields that name a completed request, in /debug/requests and
   /debug/trace/<id> alike. *)
let request_fields (c : Xmobs.Ctx.finished) =
  [ ("trace_id", Xmutil.Json.String c.Xmobs.Ctx.c_trace_id);
    ("label", Xmutil.Json.String c.Xmobs.Ctx.c_label);
    ("outcome", Xmutil.Json.String c.Xmobs.Ctx.c_outcome);
    ("status", Xmutil.Json.Int c.Xmobs.Ctx.c_status);
    ("wall_ms", Xmutil.Json.Float (c.Xmobs.Ctx.c_wall_s *. 1000.)) ]

let completed_summary (c : Xmobs.Ctx.finished) =
  Xmutil.Json.Obj
    (request_fields c
    @ [ ("ts_ms",
         Xmutil.Json.Int
           (int_of_float (Float.round (c.Xmobs.Ctx.c_ts *. 1000.))));
        ("bytes_read", Xmutil.Json.Int c.Xmobs.Ctx.c_io.Xmobs.Ctx.bytes_read);
        ("bytes_written",
         Xmutil.Json.Int c.Xmobs.Ctx.c_io.Xmobs.Ctx.bytes_written);
        ("blocks_read",
         Xmutil.Json.Int
           (Xmobs.Ctx.blocks_of c.Xmobs.Ctx.c_io.Xmobs.Ctx.bytes_read));
        ("blocks_written",
         Xmutil.Json.Int
           (Xmobs.Ctx.blocks_of c.Xmobs.Ctx.c_io.Xmobs.Ctx.bytes_written));
        ("spans", Xmutil.Json.Int c.Xmobs.Ctx.c_span_count);
        ("profile",
         Xmutil.Json.Bool (Option.is_some c.Xmobs.Ctx.c_profile)) ])

(* The ring's requests, newest first. *)
let newest_first lock ring =
  Mutex.lock lock;
  let l = Xmutil.Ring.to_list ring in
  Mutex.unlock lock;
  List.rev l

let requests t = newest_first t.requests_lock t.requests

let stores_json ?(types = false) t =
  Xmutil.Json.List
    (List.map
       (fun (name, cell) ->
         let store = Atomic.get cell in
         Xmutil.Json.Obj
           ([ ("name", Xmutil.Json.String name);
              ("nodes", Xmutil.Json.Int (Store.Shredded.node_count store));
              ("generation", Xmutil.Json.Int (Store.Shredded.generation store)) ]
           @
           if types then
             [ ("types",
                Xmutil.Json.Int (Xml.Type_table.count (Store.Shredded.types store)))
             ]
           else []))
       t.stores)

(* The dashboard's rolling windows.  The query stream's ring may be longer
   than --window (alert rules can read further back); it is reported over
   --window all the same. *)
let series_json t =
  [ ("requests", Xmobs.Timeseries.to_json t.ts_requests);
    ("errors", Xmobs.Timeseries.to_json t.ts_errors);
    ("queries",
     Xmobs.Timeseries.to_json ~last_s:t.ts_window
       (Xmobs.Alerts.latency t.stream));
    ("blocks", Xmobs.Timeseries.to_json t.ts_blocks) ]

(* The server-side half of an incident bundle: everything the recorder
   cannot see from inside lib/obs — store generations, cache
   introspection, the daemon's config, SLO state, the rolling windows,
   and the recently-completed request ring.  Given to the server's
   recorder as its context; called with the recorder's lock held, so it
   only reads. *)
let incident_context t =
  Xmutil.Json.Obj
    ([ ("config",
        Xmutil.Json.Obj
          [ ("addr", Xmutil.Json.String t.s_addr);
            ("port", Xmutil.Json.Int t.s_port);
            ("workers", Xmutil.Json.Int t.workers);
            ("window_s", Xmutil.Json.Int t.ts_window);
            ("slow_ms",
             match t.slow_ms with
             | None -> Xmutil.Json.Null
             | Some m -> Xmutil.Json.Float m) ]);
       ("uptime_s", Xmutil.Json.Float (now () -. t.started));
       ("stores", stores_json t);
       ("cache", Xmcache.to_json ());
       (* Alert-rule states at the moment of the trigger: for an
          alert-kind bundle this shows which rule fired; for any other
          kind it shows whether alerting agreed something was wrong. *)
       ("alerts", alerts_json t);
       ("series",
        Xmutil.Json.Obj
          (series_json t
          @ [ ("failures",
               Xmobs.Timeseries.to_json ~last_s:t.ts_window
                 (Xmobs.Alerts.failures t.stream)) ]));
       ("requests", Xmutil.Json.List (List.map completed_summary (requests t)))
     ]
    @ match t.slo with
      | None -> []
      | Some s -> [ ("slo", Slo.snapshot_json s) ])

(* One alert-webhook attempt over the daemon's own HTTP client; the
   evaluator owns retry and the drop counter. *)
let send_webhook ~url ~timeout_s ~body =
  match
    Http.request_url ~body
      ~headers:[ ("content-type", "application/json") ]
      ~timeout_s ~meth:"POST" url
  with
  | Ok (status, _, _) when status >= 200 && status < 300 -> Ok ()
  | Ok (status, _, _) -> Error (Printf.sprintf "status %d" status)
  | Error e -> Error e

(* A bundle in the server's recorder, when it has one. *)
let trigger ?force flight ~kind reason =
  Option.iter
    (fun f -> ignore (Xmobs.Flight.trigger f ?force ~kind ~reason ()))
    flight

let create ?(sinks = Xmobs.Obs.no_sinks) ?(addr = "127.0.0.1") ?(port = 0)
    ?(workers = 4) ?slow_ms ?slow_log ?(window = 60) ?slo_p95_ms
    ?slo_error_rate ?incident_dir ?(incident_keep = 16) ?alerts
    ?(debug_ring = 256) ?cache_bytes ~stores () =
  if stores = [] then invalid_arg "Server.create: no stores";
  let workers = max 1 (min 64 workers) in
  let window = max 1 (min 3600 window) in
  let inet =
    if String.equal addr "localhost" then Unix.inet_addr_loopback
    else
      try Unix.inet_addr_of_string addr
      with Failure _ ->
        raise (Unix.Unix_error (Unix.EINVAL, "inet_addr_of_string", addr))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (* The server's own registry, in the sinks every request writes. *)
  let metrics =
    match sinks.Xmobs.Obs.metrics with
    | Some r -> r
    | None -> Xmobs.Metrics.create ()
  in
  let requests = Xmutil.Ring.create debug_ring
  and requests_lock = Mutex.create () in
  (* The recorder's context reads the server, which holds the recorder:
     [context] is pointed at the server once it exists. *)
  let context = ref (fun () -> Xmutil.Json.Null) in
  let flight =
    Option.map
      (fun dir ->
        match
          Xmobs.Flight.create ~retention:incident_keep
            ~context:(fun () -> !context ())
            ~requests:(fun () -> newest_first requests_lock requests)
            ~metrics ~dir ()
        with
        | Ok f -> f
        | Error m ->
            Unix.close fd;
            raise (Sys_error m))
      incident_dir
  in
  Option.iter
    (fun budget_bytes -> Xmcache.enable_into metrics ~budget_bytes)
    cache_bytes;
  Xmobs.Metrics.set_gauge ~r:metrics "serve.workers" (float_of_int workers);
  List.iter
    (fun (name, text) -> Xmobs.Metrics.set_help ~r:metrics name text)
    [ ("xmorph_requests_total", "HTTP requests by route and status");
      ("xmorph_query_seconds", "query wall time by document and outcome");
      ("xmorph_guard_seconds", "query wall time by guard hash");
      ("xmorph_operator_seconds", "per-operator self time by operator name");
      ("xmorph_card_qerror",
       "closest-join cardinality-estimate q-error by operator");
      ("xmorph_cache_hits_total", "cache hits by tier (plan or result)");
      ("xmorph_cache_misses_total", "cache misses by tier (plan or result)");
      ("xmorph_cache_evictions_total", "cache evictions by tier (plan or result)");
      ("xmorph_cache_bytes", "resident bytes in the result cache");
      ("xmorph_incidents_total",
       "incident bundles written by the flight recorder, by trigger");
      ("xmorph_alerts_total", "alert transitions by rule and state");
      ("xmorph_alerts_firing", "alert rules currently in the firing state");
      ("xmorph_alert_webhook_drops_total",
       "alert webhook deliveries dropped after exhausting retries");
      ("xmorph_open_fds", "open file descriptors, from /proc/self/fd");
      ("xmorph_threads_total", "threads in the process, from /proc/self/stat");
      ("serve.request.seconds", "HTTP request wall time");
      ("serve.workers", "worker thread budget");
      ("serve.uptime_s", "seconds since the daemon started") ];
  let stream =
    Xmobs.Alerts.stream ~window
      (match alerts with Some c -> c.Xmobs.Alerts.rules | None -> [])
  in
  (* --incident-dir subscribes the SLO healthy->degraded edge as a
     flight-recorder trigger. *)
  let on_breach =
    Option.map
      (fun _ reasons ->
        trigger flight ~kind:Xmobs.Flight.Slo_breach
          (String.concat "; " reasons))
      flight
  in
  (* Alert evaluator: --alert-rules starts the rule engine over the
     query stream; each rule that starts firing lands an alert-kind
     bundle in this server's recorder. *)
  let alerts =
    Option.map
      (fun cfg ->
        Xmobs.Alerts.start ~send:send_webhook ~metrics
          ~on_firing:(fun (tr : Xmobs.Alerts.transition) ->
            trigger flight ~kind:Xmobs.Flight.Alert
              (Printf.sprintf "alert %s: %s" tr.Xmobs.Alerts.rule
                 tr.Xmobs.Alerts.reason))
          stream cfg)
      alerts
  in
  let t = {
    s_addr = addr;
    s_port = actual_port;
    workers;
    stores = List.map (fun (name, store) -> (name, Atomic.make store)) stores;
    update_lock = Mutex.create ();
    listen_fd = fd;
    started = now ();
    life = Atomic.make Idle;
    reading = Array.make workers None;
    reading_lock = Mutex.create ();
    slow_ms;
    slow_log;
    ts_window = window;
    ts_requests = Xmobs.Timeseries.create ~window Histogram;
    ts_errors = Xmobs.Timeseries.create ~window Counter;
    ts_blocks = Xmobs.Timeseries.create ~window Counter;
    stream;
    slo =
      Slo.create ?p95_ms:slo_p95_ms ?error_rate:slo_error_rate ?on_breach
        ~window stream;
    sinks = { sinks with Xmobs.Obs.metrics = Some metrics };
    metrics;
    requests;
    requests_lock;
    flight;
    alerts;
    thread = None;
  }
  in
  context := (fun () -> incident_context t);
  t

let port t = t.s_port

let addr t = t.s_addr

let store_cell_for t req =
  match List.assoc_opt "doc" req.Http.query with
  | None -> Some (List.hd t.stores)
  | Some name -> List.find_opt (fun (n, _) -> String.equal n name) t.stores

let store_for t req =
  store_cell_for t req
  |> Option.map (fun (n, cell) -> (n, Atomic.get cell))

let truthy = function
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let stats_json t =
  (* Refresh process gauges (RSS, GC, uptime) so a /stats poller — the
     xmorph top dashboard — sees them without also scraping /metrics. *)
  Xmobs.Selfmetrics.sample ~r:t.metrics ~uptime_s:(now () -. t.started) ();
  let queries =
    List.map
      (fun o ->
        ( o,
          Xmutil.Json.Int
            (Xmobs.Metrics.counter_value ~r:t.metrics ("serve.queries." ^ o)) ))
      outcome_names
  in
  Xmutil.Json.Obj
    [ ("uptime_s", Xmutil.Json.Float (now () -. t.started));
      ("workers", Xmutil.Json.Int t.workers);
      (* exact past the family's cardinality cap: the "_other" series
         counts what it absorbed *)
      ("requests",
       Xmutil.Json.Int
         (List.fold_left (fun n (_, v) -> n + v) 0
            (Xmobs.Metrics.counter_series ~r:t.metrics "xmorph_requests_total")));
      ("stores", stores_json ~types:true t);
      ("queries", Xmutil.Json.Obj queries);
      ("metrics", Xmobs.Metrics.to_json ~r:t.metrics ()) ]

(* Slow-query auto-capture: re-execute the over-threshold request once
   and return its frames for [finish] to seal into the request's ring
   entry (and, optionally, a --slow-log artifact).  [Ctx.profiled] hands
   the re-execution a temporary context of its own: its spans and query
   record stay out of the request's entry, and no other request adds
   frames.  It writes no
   metrics registry: the request's own execution already counted its
   render and set the store gauges.  Runs before the response returns,
   delaying it by about one execution. *)
let capture_slow t ~trace_id ~doc_name ~enforce ?query store guard =
  let _, frames =
    Xmobs.Ctx.profiled (fun ctx ->
        Exec.execute ~ctx
          ~sinks:{ t.sinks with Xmobs.Obs.metrics = None }
          ~source:"slow-capture" ~doc:doc_name
          ~enforce ~trace_id ?query store guard)
  in
  (match t.slow_log with
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Xmutil.Json.write_file
          (Filename.concat dir (trace_id ^ ".json"))
          (Xmobs.Frames.to_json frames)
      with Sys_error _ | Unix.Unix_error _ -> ()));
  frames

(* The flight recorder's per-query work, run after the request is
   finished so that a bundle it writes includes that request: a metric
   snapshot, then the SLO judged on the query stream itself rather than
   at the next /healthz probe (the trigger is edge-triggered, so this
   adds no extra incidents, only timeliness), then the error-rate
   trigger — a window where failures dominate is an incident even
   without an SLO configured. *)
let flight_after_query t flight kind =
  Xmobs.Flight.snapshot flight;
  Option.iter (fun s -> ignore (Slo.evaluate s)) t.slo;
  match kind with
  | Xmobs.Qlog.Internal | Xmobs.Qlog.Parse_error ->
      let count ts = Xmobs.Timeseries.count_last ts t.ts_window in
      let failures = count (Xmobs.Alerts.failures t.stream) in
      let queries = count (Xmobs.Alerts.latency t.stream) in
      if
        failures >= failure_trigger_min
        && float_of_int failures
           > failure_trigger_frac *. float_of_int queries
      then
        ignore
          (Xmobs.Flight.trigger flight ~kind:Xmobs.Flight.Error_rate
             ~reason:
               (Printf.sprintf
                  "%d internal/parse-error outcomes of %d queries (window %ds)"
                  failures queries t.ts_window)
             ())
  | Xmobs.Qlog.Ok | Xmobs.Qlog.Type_mismatch -> ()

(* The trace label of a request that executed nothing. *)
let refused_label (req : Http.request) =
  if String.trim req.Http.body = "" then req.Http.path
  else Xmobs.Qlog.hash_text req.Http.body

(* Route one POST /query under a fresh context and return the response
   with the context's finished record, the request's one record: kept in
   the server's request ring here, and folded by [observe] into every
   per-request sink.  An executed query is
   named by its query record; a refused one (no such store, empty guard)
   by [refused_label] and the outcome given here. *)
let handle_query t req =
  (* Honor an upstream W3C traceparent when well-formed; otherwise (or
     when absent) start a fresh trace.  Malformed values never fail the
     request. *)
  let ctx =
    match
      Option.bind (Http.header req "traceparent") Xmobs.Ctx.parse_traceparent
    with
    | Some (trace_id, parent_span) ->
        Xmobs.Ctx.create ~trace_id ~parent_span ()
    | None -> Xmobs.Ctx.create ()
  in
  let t0 = now () in
  (* [rerun] is what a slow-query capture needs to re-execute; None when
     the request was refused. *)
  let resp, refused, rerun =
    match store_for t req with
    | None ->
        ( Http.response 404
            (Printf.sprintf "unknown doc %S\n"
               (Option.value ~default:""
                  (List.assoc_opt "doc" req.Http.query))),
          Some "no-store",
          None )
    | Some (doc_name, store) ->
        let guard = req.Http.body in
        if String.trim guard = "" then
          (Http.response 400 "empty guard body\n", Some "empty-guard", None)
        else begin
          let query = List.assoc_opt "query" req.Http.query in
          let enforce =
            not (truthy (List.assoc_opt "force" req.Http.query))
          in
          let resp =
            match
              Exec.execute ~ctx ~sinks:t.sinks ~source:"serve" ~doc:doc_name
                ~enforce ?query store guard
            with
            | Exec.Rendered { body; _ } | Exec.Query_result { body; _ } ->
                Http.response ~content_type:"application/xml" 200 body
            | Exec.Failed { kind; message } ->
                let status =
                  match kind with
                  | Xmobs.Qlog.Parse_error -> 400
                  | Xmobs.Qlog.Type_mismatch -> 422
                  | Xmobs.Qlog.Internal | Xmobs.Qlog.Ok -> 500
                in
                let message =
                  if String.length message > 0
                     && message.[String.length message - 1] = '\n'
                  then message
                  else message ^ "\n"
                in
                Http.response status message
          in
          (* Keep the on-disk log live for tail -f / xmorph stats
             while the daemon runs; the Shutdown path covers the
             final records. *)
          Option.iter Xmobs.Qlog.flush t.sinks.Xmobs.Obs.qlog;
          (resp, None, Some (doc_name, store, enforce, query))
        end
  in
  let wall_s = now () -. t0 in
  let profile =
    match (t.slow_ms, rerun) with
    | Some threshold, Some (doc_name, store, enforce, query)
      when wall_s *. 1000. >= threshold ->
        Some
          (capture_slow t ~trace_id:(Xmobs.Ctx.trace_id ctx) ~doc_name
             ~enforce ?query store req.Http.body)
    | _ -> None
  in
  let completed =
    Xmobs.Ctx.finish ?profile
      ?label:(Option.map (fun _ -> refused_label req) refused)
      ?outcome:refused ctx ~status:resp.Http.status ~wall_s
  in
  Mutex.lock t.requests_lock;
  Xmutil.Ring.push t.requests completed;
  Mutex.unlock t.requests_lock;
  ( {
      resp with
      Http.headers =
        resp.Http.headers
        @ [ ("traceparent", Xmobs.Ctx.traceparent ctx);
            ("x-xmorph-trace-id", Xmobs.Ctx.trace_id ctx) ];
    },
    Some completed )

(* POST /update?doc=NAME&node=ID — body is the node's new text value.
   The serving half of mapping value updates onto a materialized
   transformation (Sec. VIII): build the updated store value (functional
   [update_values]) and swap it into the cell.  The call stamps a fresh
   generation on the written node's type alone, which orphans by key
   mismatch the result-cache entries of the guards that read that type;
   every other entry, and every compiled plan (the shape is shared),
   survives.  Serialized by
   [update_lock] — the swap is a read-modify-write — while queries keep
   reading whichever value their [Atomic.get] saw. *)
let handle_update t req =
  match store_cell_for t req with
  | None ->
      Http.response 404
        (Printf.sprintf "unknown doc %S\n"
           (Option.value ~default:"" (List.assoc_opt "doc" req.Http.query)))
  | Some (doc_name, cell) -> (
      match
        Option.bind (List.assoc_opt "node" req.Http.query) int_of_string_opt
      with
      | None -> Http.response 400 "missing or malformed node id\n"
      | Some id ->
          Mutex.lock t.update_lock;
          let result =
            match
              Store.Shredded.update_values (Atomic.get cell) [ (id, req.Http.body) ]
            with
            | updated ->
                Atomic.set cell updated;
                Ok updated
            | exception Invalid_argument _ -> Error ()
          in
          Mutex.unlock t.update_lock;
          (match result with
          | Error () ->
              Http.response 400
                (Printf.sprintf "no node %d in %s\n" id doc_name)
          | Ok updated ->
              Exec.store_gauges t.metrics updated;
              json_ok
                (Xmutil.Json.Obj
                   [ ("doc", Xmutil.Json.String doc_name);
                     ("node", Xmutil.Json.Int id);
                     ("generation",
                      Xmutil.Json.Int (Store.Shredded.generation updated)) ])))

(* ---------- /debug endpoints ---------- *)

let debug_requests t =
  json_ok
    (Xmutil.Json.Obj
       [ ("requests", Xmutil.Json.List (List.map completed_summary (requests t)))
       ])

let debug_trace t trace_id =
  match
    List.find_opt
      (fun c -> String.equal c.Xmobs.Ctx.c_trace_id trace_id)
      (requests t)
  with
  | None -> Http.response 404 (Printf.sprintf "no trace %S\n" trace_id)
  | Some c ->
      let fields =
        request_fields c
        @ [ ("trace", Xmobs.Trace.json_of_entries c.Xmobs.Ctx.c_entries);
            ("query",
             match c.Xmobs.Ctx.c_qlog with
             | None -> Xmutil.Json.Null
             | Some e -> Xmobs.Qlog.entry_to_json e) ]
        @ (match c.Xmobs.Ctx.c_profile with
          | None -> []
          | Some frames -> [ ("profile", Xmobs.Frames.to_json frames) ])
      in
      json_ok (Xmutil.Json.Obj fields)

let trace_prefix = "/debug/trace/"

(* ---------- incidents ---------- *)

let debug_incidents t =
  json_ok
    (Xmutil.Json.Obj
       [ ("enabled", Xmutil.Json.Bool (Option.is_some t.flight));
         ("dir",
          match t.flight with
          | None -> Xmutil.Json.Null
          | Some f -> Xmutil.Json.String (Xmobs.Flight.dir f));
         ("incidents",
          Xmutil.Json.List
            (List.map
               (fun (name, size) ->
                 Xmutil.Json.Obj
                   [ ("name", Xmutil.Json.String name);
                     ("size_bytes", Xmutil.Json.Int size) ])
               (Option.fold ~none:[] ~some:Xmobs.Flight.incidents t.flight)))
       ])

(* Only names the recorder itself produces are served — a path component
   or traversal in the request can never escape the incident dir. *)
let safe_bundle_name n =
  String.length n > 0
  && String.starts_with ~prefix:"incident-" n
  && Filename.check_suffix n ".json"
  && not (String.contains n '/')
  && not (String.contains n '\\')

let incidents_prefix = "/debug/incidents/"

let debug_incident_fetch t name =
  if not (safe_bundle_name name) then
    Http.response 404 (Printf.sprintf "no incident %S\n" name)
  else
    match t.flight with
    | None -> Http.response 503 "flight recorder disabled\n"
    | Some f -> (
        let path = Filename.concat (Xmobs.Flight.dir f) name in
        match open_in_bin path with
        | exception Sys_error _ ->
            Http.response 404 (Printf.sprintf "no incident %S\n" name)
        | ic ->
            let len = in_channel_length ic in
            let body = really_input_string ic len in
            close_in_noerr ic;
            Http.response ~content_type:"application/json" 200 body)

let debug_incident_trigger t (req : Http.request) =
  match t.flight with
  | None -> Http.response 503 "flight recorder disabled\n"
  | Some f -> (
      let reason =
        let b = String.trim req.Http.body in
        if b = "" then "manual trigger" else b
      in
      match
        Xmobs.Flight.trigger f ~force:true ~kind:Xmobs.Flight.Manual ~reason ()
      with
      | None -> Http.response 500 "incident bundle write failed\n"
      | Some name ->
          json_ok (Xmutil.Json.Obj [ ("incident", Xmutil.Json.String name) ]))

(* Top guards by cumulative window-free time: the labeled family already
   aggregates per guard hash, so the dashboard ranking is a read. *)
let top_guards_json ?(limit = 10) t =
  Xmobs.Metrics.histogram_series ~r:t.metrics "xmorph_guard_seconds"
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun (ls, (n, s)) ->
         Xmutil.Json.Obj
           [ ("guard",
              Xmutil.Json.String
                (Option.value ~default:"?" (List.assoc_opt "guard" ls)));
             ("calls", Xmutil.Json.Int n);
             ("total_s", Xmutil.Json.Float s) ])
  |> fun rows -> Xmutil.Json.List rows

let debug_timeseries t =
  json_ok
    (Xmutil.Json.Obj
       ([ ("window_s", Xmutil.Json.Int t.ts_window);
          ("uptime_s", Xmutil.Json.Float (now () -. t.started));
          ("series", Xmutil.Json.Obj (series_json t)) ]
       @ (match t.slo with None -> [] | Some s -> [ ("slo", Slo.to_json s) ])
       @ [ ("top_guards", top_guards_json t) ]))

let healthz t =
  match t.slo with
  | None -> Http.response 200 "ok\n"
  | Some s -> (
      match Slo.evaluate s with
      | [] -> Http.response 200 "ok\n"
      | reasons ->
          Http.response 503 ("degraded\n" ^ String.concat "\n" reasons ^ "\n"))

(* The --stats-db warehouse, live: what it loaded at startup plus what
   this process recorded since.  Off → a one-field JSON. *)
let debug_opstats t =
  let body =
    match t.sinks.Xmobs.Obs.statdb with
    | None -> disabled_json
    | Some db ->
        Xmutil.Json.Obj
          [ ("enabled", Xmutil.Json.Bool true);
            ("path",
             Xmutil.Json.String
               (Option.value ~default:"" (Xmobs.Statdb.path db)));
            ("rows", Xmutil.Json.Int (Xmobs.Statdb.size db));
            ("db", Xmobs.Statdb.to_json db) ]
  in
  json_ok body

let route t (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> healthz t
  (* Live alert-rule states plus the recent-transitions ring; a one-field
     object when no --alert-rules file was given, so pollers need no
     special case. *)
  | "GET", "/debug/alerts" -> json_ok (alerts_json t)
  | "GET", "/debug/opstats" -> debug_opstats t
  | "GET", "/debug/cache" -> json_ok (Xmcache.to_json ())
  | "GET", "/debug/timeseries" -> debug_timeseries t
  | "GET", "/metrics" ->
      Xmobs.Metrics.set_gauge ~r:t.metrics "serve.uptime_s" (now () -. t.started);
      Xmobs.Selfmetrics.sample ~r:t.metrics ~uptime_s:(now () -. t.started) ();
      Http.response ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        200
        (Xmobs.Metrics.to_prometheus ~r:t.metrics
           ~info:
             [ ("version", "2.0");
               ("stores", String.concat "," (List.map fst t.stores)) ]
           ())
  | "GET", "/stats" ->
      json_ok (stats_json t)
  | "GET", "/debug/requests" -> debug_requests t
  | "GET", "/debug/incidents" -> debug_incidents t
  | "GET", path when String.starts_with ~prefix:incidents_prefix path ->
      debug_incident_fetch t
        (String.sub path
           (String.length incidents_prefix)
           (String.length path - String.length incidents_prefix))
  | "GET", path when String.starts_with ~prefix:trace_prefix path ->
      debug_trace t
        (String.sub path (String.length trace_prefix)
           (String.length path - String.length trace_prefix))
  | "POST", "/update" -> handle_update t req
  | "POST", "/debug/incident" -> debug_incident_trigger t req
  | ("GET" | "POST" | "HEAD" | "PUT" | "DELETE"), _ ->
      Http.response 404 (Printf.sprintf "no route %s %s\n" req.Http.meth req.Http.path)
  | m, _ -> Http.response 405 (Printf.sprintf "method %s not allowed\n" m)

(* Normalized route label for the request family: known routes keep their
   path, per-id trace lookups collapse to one series, everything else —
   including client typos — shares "other" so the label set stays small. *)
let route_label (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", (("/healthz" | "/metrics" | "/stats" | "/debug/requests"
            | "/debug/timeseries" | "/debug/opstats" | "/debug/cache"
            | "/debug/incidents" | "/debug/alerts") as p) ->
      p
  | "GET", p when String.starts_with ~prefix:incidents_prefix p ->
      "/debug/incidents/:name"
  | "GET", p when String.starts_with ~prefix:trace_prefix p ->
      "/debug/trace/:id"
  | "POST", "/query" -> "/query"
  | "POST", "/update" -> "/update"
  | "POST", "/debug/incident" -> "/debug/incident"
  | _ -> "other"

(* The one fold point: every per-request registry and window write
   happens here, once per request.  Every response — queries and
   monitoring scrapes alike — lands in the request family and the
   request/error windows; a /query's finished record feeds the block
   window from its I/O, the capture counter from its profile, and its
   query record, when it ran one, the query families, the alert stream
   and the flight recorder. *)
let observe t ~route ~status ~wall_s completed =
  let r = t.metrics in
  Xmobs.Metrics.observe ~r "serve.request.seconds" wall_s;
  Xmobs.Metrics.inc_labeled ~r "xmorph_requests_total"
    [ ("route", route); ("status", string_of_int status) ];
  Xmobs.Timeseries.record t.ts_requests wall_s;
  if status >= 400 then Xmobs.Timeseries.bump t.ts_errors;
  match completed with
  | None -> ()
  | Some { Xmobs.Ctx.c_io = io; c_qlog; c_profile; _ } -> (
      let blocks =
        Xmobs.Ctx.blocks_of io.Xmobs.Ctx.bytes_read
        + Xmobs.Ctx.blocks_of io.Xmobs.Ctx.bytes_written
      in
      if blocks > 0 then Xmobs.Timeseries.bump ~by:blocks t.ts_blocks;
      if Option.is_some c_profile then Xmobs.Metrics.inc ~r "serve.slow_captures";
      match c_qlog with
      | None -> ()
      | Some { Xmobs.Qlog.doc; outcome; guard_hash; wall_s = qwall; _ } ->
          let name = Xmobs.Qlog.outcome_to_string outcome in
          Xmobs.Metrics.inc ~r ("serve.queries." ^ name);
          (* Dimension-labeled views of the same execution: by doc and
             outcome for capacity questions, by guard hash for "which
             query is expensive" — bounded families, excess guards
             collapse into the "_other" series. *)
          Xmobs.Metrics.observe_labeled ~r "xmorph_query_seconds"
            [ ("doc", doc); ("outcome", name) ] qwall;
          Xmobs.Metrics.observe_labeled ~r "xmorph_guard_seconds"
            [ ("guard", guard_hash) ] qwall;
          Xmobs.Alerts.feed t.stream ~outcome ~wall_s:qwall;
          Option.iter (fun f -> flight_after_query t f outcome) t.flight)

let shutdown_receive fd =
  try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

(* Worker [w] waits for the request on [fd].  Registered under
   [reading_lock], so [stop] either finds the connection here or, when it
   got there first, the worker sees [Stopped] and shuts it itself; the
   entry is cleared before [fd] can be closed. *)
let set_reading t w v =
  Mutex.lock t.reading_lock;
  t.reading.(w) <- v;
  (match v with
  | Some fd when Atomic.get t.life = Stopped -> shutdown_receive fd
  | _ -> ());
  Mutex.unlock t.reading_lock

let await_request t w fd =
  set_reading t w (Some fd);
  Fun.protect
    ~finally:(fun () -> set_reading t w None)
    (fun () -> Http.read_request fd)

let handle_conn t w fd =
  let t0 = now () in
  match await_request t w fd with
  | None -> ()
  | Some req ->
      let resp, completed =
        try
          match (req.Http.meth, req.Http.path) with
          | "POST", "/query" -> handle_query t req
          | _ -> (route t req, None)
        with e ->
          ( Http.response 500
              ("internal error: " ^ Printexc.to_string e ^ "\n"),
            None )
      in
      observe t ~route:(route_label req) ~status:resp.Http.status
        ~wall_s:(now () -. t0) completed;
      Http.write_response fd resp
  | exception Http.Parse_error m ->
      observe t ~route:"malformed" ~status:400 ~wall_s:(now () -. t0) None;
      Http.write_response fd (Http.response 400 (m ^ "\n"))
  | exception Unix.Unix_error _ -> ()

(* One connection, start to close.  Nothing it raises may escape: the
   worker serves the next connection whatever became of this one. *)
let serve_conn t w fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (try handle_conn t w fd
   with e ->
     Printf.eprintf "xmorph serve: connection dropped: %s\n%!"
       (Printexc.to_string e));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Worker [w]: accept, serve, close, until [stop] shuts the listener.  A
   failed accept other than the shutdown (EMFILE, say) backs off and
   retries, so the pool never shrinks. *)
let worker t w =
  let rec loop () =
    if Atomic.get t.life <> Stopped then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          serve_conn t w fd;
          loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          loop ()
      | exception Unix.Unix_error _ ->
          if Atomic.get t.life <> Stopped then begin
            Thread.delay 0.01;
            loop ()
          end
  in
  loop ()

(* The listener of a server that ran is closed only here, once no worker
   can call [accept] on it: closed any earlier, its descriptor could be
   reused by a file opened meanwhile.  A server stopped before it ran
   does not run; [stop] closed its listener. *)
let run t =
  if Atomic.compare_and_set t.life Idle Running then begin
    List.init t.workers (Thread.create (worker t)) |> List.iter Thread.join;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create run t)

let stop t =
  match Atomic.exchange t.life Stopped with
  | Stopped -> ()
  | was -> (
      (* Join the alert ticker before tearing the listener down: a tick
         mid-shutdown would race the sinks against process exit. *)
      Option.iter Xmobs.Alerts.stop t.alerts;
      (* A server that never ran has no worker on its listener, and [run]
         no longer starts one, so the listener is closed here. *)
      if was = Idle then (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
      else begin
        (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        Mutex.lock t.reading_lock;
        Array.iter (Option.iter shutdown_receive) t.reading;
        Mutex.unlock t.reading_lock
      end;
      match t.thread with
      | Some th ->
          Thread.join th;
          t.thread <- None
      | None -> ())

(* Dying on a termination signal is itself an incident; [force] keeps a
   just-fired SLO breach from suppressing it. *)
let on_signal t n =
  trigger ~force:true t.flight ~kind:Xmobs.Flight.Signal
    (Printf.sprintf "terminated by signal (exit %d)"
       (Xmobs.Shutdown.signal_exit_code n))
