(* The serve daemon: a fixed pool of long-lived worker threads.

   Each of the [workers] threads loops on [Unix.accept] over the one
   listening socket, serves the connection it got (read one request,
   route it, write the response, close), and accepts again.  At most
   [workers] requests are in flight; past that, clients wait in the
   kernel's accept queue (backlog 64), so overload backpressures instead
   of growing a thread herd.  Handlers share the process-wide
   observability state — the global metrics registry (counters/gauges
   are atomic or word-sized), the store's mutex-guarded caches, and the
   mutex-guarded query-log writer — so no extra synchronization is needed
   here.  A worker keeps its thread id across requests, and [Xmobs.Ctx]
   keys request contexts by thread id, so no context may outlive its
   connection. *)

let now () = Unix.gettimeofday ()

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
  stopping : bool Atomic.t;
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
  alerts_on : bool; (* this daemon enabled the global alert evaluator *)
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

let completed_summary (c : Xmobs.Ctx.completed) =
  Xmutil.Json.Obj
    [ ("trace_id", Xmutil.Json.String c.Xmobs.Ctx.c_trace_id);
      ("label", Xmutil.Json.String c.Xmobs.Ctx.c_label);
      ("outcome", Xmutil.Json.String c.Xmobs.Ctx.c_outcome);
      ("status", Xmutil.Json.Int c.Xmobs.Ctx.c_status);
      ("wall_ms", Xmutil.Json.Float (c.Xmobs.Ctx.c_wall_s *. 1000.));
      ("ts_ms",
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
       Xmutil.Json.Bool (Option.is_some c.Xmobs.Ctx.c_profile)) ]

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
   and the recently-completed request ring.  Injected into Flight as the
   context provider; called with the recorder's lock held, so it only
   reads. *)
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
       ("alerts", Xmobs.Alerts.to_json ());
       ("series",
        Xmutil.Json.Obj
          (series_json t
          @ [ ("failures",
               Xmobs.Timeseries.to_json ~last_s:t.ts_window
                 (Xmobs.Alerts.failures t.stream)) ]));
       ("requests",
        Xmutil.Json.List
          (List.map completed_summary (Xmobs.Ctx.completed ()))) ]
    @ match t.slo with
      | None -> []
      | Some s -> [ ("slo", Slo.snapshot_json s) ])

let create ?(addr = "127.0.0.1") ?(port = 0) ?(workers = 4) ?slow_ms ?slow_log
    ?(window = 60) ?slo_p95_ms ?slo_error_rate ?incident_dir
    ?(incident_keep = 16) ?alerts ~stores () =
  if stores = [] then invalid_arg "Server.create: no stores";
  let workers = max 1 (min 64 workers) in
  let window = max 1 (min 3600 window) in
  let inet =
    try Unix.inet_addr_of_string addr
    with Failure _ -> Unix.inet_addr_loopback
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (inet, port));
  Unix.listen fd 64;
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (* The daemon always collects metrics: /metrics is only useful live. *)
  Xmobs.Metrics.enable ();
  Xmobs.Metrics.set_gauge "serve.workers" (float_of_int workers);
  List.iter
    (fun (name, text) -> Xmobs.Metrics.set_help name text)
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
      ("serve.requests", "HTTP requests handled since start");
      ("serve.updates", "store value updates applied via POST /update");
      ("serve.request.seconds", "HTTP request wall time");
      ("serve.query.seconds", "executed query wall time");
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
        ignore
          (Xmobs.Flight.trigger ~kind:Xmobs.Flight.Slo_breach
             ~reason:(String.concat "; " reasons) ()))
      incident_dir
  in
  let t = {
    s_addr = addr;
    s_port = actual_port;
    workers;
    stores = List.map (fun (name, store) -> (name, Atomic.make store)) stores;
    update_lock = Mutex.create ();
    listen_fd = fd;
    started = now ();
    stopping = Atomic.make false;
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
    alerts_on = Option.is_some alerts;
    thread = None;
  }
  in
  (* Flight recorder: --incident-dir turns it on and wires the
     server-side context into its bundles. *)
  (match incident_dir with
  | None -> ()
  | Some dir ->
      Xmobs.Flight.enable ~retention:incident_keep ~dir ();
      Xmobs.Flight.set_context_provider (fun () -> incident_context t));
  (* Alert evaluator: --alert-rules starts the rule engine after the
     flight recorder, so a firing rule's Flight.trigger finds the
     recorder already wired with this server's context.  The webhook
     primitive is injected here — xmobs stays below serve — and makes
     one attempt; the evaluator owns retry and the drop counter. *)
  (match alerts with
  | None -> ()
  | Some cfg ->
      Xmobs.Alerts.set_webhook_sender (fun ~url ~timeout_s ~body ->
          match
            Http.request_url ~body
              ~headers:[ ("content-type", "application/json") ]
              ~timeout_s ~meth:"POST" url
          with
          | Ok (status, _, _) when status >= 200 && status < 300 -> Ok ()
          | Ok (status, _, _) -> Error (Printf.sprintf "status %d" status)
          | Error e -> Error e);
      Xmobs.Alerts.enable stream cfg);
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
  Xmobs.Selfmetrics.sample ~uptime_s:(now () -. t.started) ();
  let queries =
    List.map
      (fun o -> (o, Xmutil.Json.Int (Xmobs.Metrics.counter_value ("serve.queries." ^ o))))
      outcome_names
  in
  Xmutil.Json.Obj
    [ ("uptime_s", Xmutil.Json.Float (now () -. t.started));
      ("workers", Xmutil.Json.Int t.workers);
      ("requests", Xmutil.Json.Int (Xmobs.Metrics.counter_value "serve.requests"));
      ("stores", stores_json ~types:true t);
      ("queries", Xmutil.Json.Obj queries);
      ("metrics", Xmobs.Metrics.to_json ()) ]

(* Slow-query auto-capture: re-execute the over-threshold request once
   and return its frames for [finish] to seal into the request's ring
   entry (and, optionally, a --slow-log artifact).  Called after the
   request's context is uninstalled, so [Ctx.profiled] runs it in a
   temporary context of its own: its spans and metric increments stay
   out of the request's trace, and no other request adds frames.  Runs
   before the response returns, delaying it by about one execution. *)
let capture_slow t ~trace_id ~doc_name ~enforce ?query store guard =
  let _, frames =
    Xmobs.Ctx.profiled (fun () ->
        Exec.execute ~source:"slow-capture" ~doc:doc_name ~enforce ~trace_id
          ?query store guard)
  in
  Xmobs.Metrics.inc "serve.slow_captures";
  (match t.slow_log with
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let path = Filename.concat dir (trace_id ^ ".json") in
        let oc = open_out path in
        output_string oc
          (Xmutil.Json.to_string ~pretty:true (Xmobs.Profile.to_json frames));
        output_char oc '\n';
        close_out_noerr oc
      with Sys_error _ | Unix.Unix_error _ -> ()));
  frames

(* The flight recorder's per-query work, run after the request is
   finished so that a bundle it writes includes that request: a metric
   snapshot, then the SLO judged on the query stream itself rather than
   at the next /healthz probe (the trigger is edge-triggered, so this
   adds no extra incidents, only timeliness), then the error-rate
   trigger — a window where failures dominate is an incident even
   without an SLO configured. *)
let flight_after_query t kind =
  Xmobs.Flight.snapshot ();
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
          (Xmobs.Flight.trigger ~kind:Xmobs.Flight.Error_rate
             ~reason:
               (Printf.sprintf
                  "%d internal/parse-error outcomes of %d queries (window %ds)"
                  failures queries t.ts_window)
             ())
  | Xmobs.Qlog.Ok | Xmobs.Qlog.Type_mismatch -> ()

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
  (* One FNV-1a digest per request: computed when a guard is executed,
     reused for the guard-seconds label, the trace label, and (inside
     Exec) the query-log record, warehouse submit, and cache keys. *)
  let ghash = ref None in
  (* [executed] carries the query's outcome and what a slow-query capture
     needs to re-execute; None when nothing was executed (unknown doc,
     empty guard). *)
  let resp, outcome_name, executed =
    Xmobs.Ctx.with_ctx ctx (fun () ->
        match store_for t req with
        | None ->
            ( Http.response 404
                (Printf.sprintf "unknown doc %S\n"
                   (Option.value ~default:""
                      (List.assoc_opt "doc" req.Http.query))),
              "no-store",
              None )
        | Some (doc_name, store) ->
            let guard = req.Http.body in
            if String.trim guard = "" then
              (Http.response 400 "empty guard body\n", "empty-guard", None)
            else begin
              let query = List.assoc_opt "query" req.Http.query in
              let enforce =
                not (truthy (List.assoc_opt "force" req.Http.query))
              in
              let guard_hash = Xmobs.Qlog.hash_text guard in
              ghash := Some guard_hash;
              let tq = now () in
              let outcome =
                Exec.execute ~source:"serve" ~doc:doc_name ~enforce
                  ~guard_hash ?query store guard
              in
              let qwall = now () -. tq in
              Xmobs.Metrics.observe "serve.query.seconds" qwall;
              let resp, kind =
                match outcome with
                | Exec.Rendered { body; _ } | Exec.Query_result { body; _ }
                  ->
                    Xmobs.Metrics.inc "serve.queries.ok";
                    (Http.response ~content_type:"application/xml" 200 body,
                     Xmobs.Qlog.Ok)
                | Exec.Failed { kind; message } ->
                    let status =
                      match kind with
                      | Xmobs.Qlog.Parse_error -> 400
                      | Xmobs.Qlog.Type_mismatch -> 422
                      | Xmobs.Qlog.Internal | Xmobs.Qlog.Ok -> 500
                    in
                    Xmobs.Metrics.inc
                      ("serve.queries." ^ Xmobs.Qlog.outcome_to_string kind);
                    let message =
                      if String.length message > 0
                         && message.[String.length message - 1] = '\n'
                      then message
                      else message ^ "\n"
                    in
                    (Http.response status message, kind)
              in
              let name = Xmobs.Qlog.outcome_to_string kind in
              (* Dimension-labeled views of the same execution: by doc
                 and outcome for capacity questions, by guard hash for
                 "which query is expensive" — bounded families, excess
                 guards collapse into the "_other" series. *)
              Xmobs.Metrics.observe_labeled "xmorph_query_seconds"
                [ ("doc", doc_name); ("outcome", name) ]
                qwall;
              Xmobs.Metrics.observe_labeled "xmorph_guard_seconds"
                [ ("guard", guard_hash) ]
                qwall;
              Xmobs.Alerts.feed t.stream ~outcome:kind ~wall_s:qwall;
              (* Keep the on-disk log live for tail -f / xmorph stats
                 while the daemon runs; the Shutdown path covers the
                 final records. *)
              Xmobs.Qlog.flush_global ();
              (resp, name, Some (kind, (doc_name, store, enforce, query)))
            end)
  in
  let wall_s = now () -. t0 in
  let label =
    match !ghash with
    | Some h -> h
    | None ->
        let guard = String.trim req.Http.body in
        if guard = "" then req.Http.path
        else Xmobs.Qlog.hash_text req.Http.body
  in
  let profile =
    match (t.slow_ms, executed) with
    | Some threshold, Some (_, (doc_name, store, enforce, query))
      when wall_s *. 1000. >= threshold ->
        Some
          (capture_slow t ~trace_id:(Xmobs.Ctx.trace_id ctx) ~doc_name
             ~enforce ?query store req.Http.body)
    | _ -> None
  in
  Xmobs.Ctx.finish ?profile ctx ~label ~outcome:outcome_name
    ~status:resp.Http.status ~wall_s;
  (let io = Xmobs.Ctx.io ctx in
   let blocks =
     Xmobs.Ctx.blocks_of io.Xmobs.Ctx.bytes_read
     + Xmobs.Ctx.blocks_of io.Xmobs.Ctx.bytes_written
   in
   if blocks > 0 then Xmobs.Timeseries.bump ~by:blocks t.ts_blocks);
  (match executed with
  | Some (kind, _) when Xmobs.Flight.enabled () -> flight_after_query t kind
  | _ -> ());
  {
    resp with
    Http.headers =
      resp.Http.headers
      @ [ ("traceparent", Xmobs.Ctx.traceparent ctx);
          ("x-xmorph-trace-id", Xmobs.Ctx.trace_id ctx) ];
  }

(* POST /update?doc=NAME&node=ID — body is the node's new text value.
   The serving half of mapping value updates onto a materialized
   transformation (Sec. VIII): build the updated store value (functional
   [update_values]) and swap it into the cell.  The fresh generation
   orphans every result-cache entry for the old value by key mismatch;
   compiled plans survive, since the shape is shared.  Serialized by
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
              Xmobs.Metrics.inc "serve.updates";
              json_ok
                (Xmutil.Json.Obj
                   [ ("doc", Xmutil.Json.String doc_name);
                     ("node", Xmutil.Json.Int id);
                     ("generation",
                      Xmutil.Json.Int (Store.Shredded.generation updated)) ])))

(* ---------- /debug endpoints ---------- *)

let debug_requests () =
  json_ok
    (Xmutil.Json.Obj
       [ ("requests",
          Xmutil.Json.List (List.map completed_summary (Xmobs.Ctx.completed ())))
       ])

let debug_trace trace_id =
  match Xmobs.Ctx.find_completed trace_id with
  | None -> Http.response 404 (Printf.sprintf "no trace %S\n" trace_id)
  | Some c ->
      let fields =
        [ ("trace_id", Xmutil.Json.String c.Xmobs.Ctx.c_trace_id);
          ("label", Xmutil.Json.String c.Xmobs.Ctx.c_label);
          ("outcome", Xmutil.Json.String c.Xmobs.Ctx.c_outcome);
          ("status", Xmutil.Json.Int c.Xmobs.Ctx.c_status);
          ("wall_ms", Xmutil.Json.Float (c.Xmobs.Ctx.c_wall_s *. 1000.));
          ("trace", Xmobs.Trace.json_of_entries c.Xmobs.Ctx.c_entries);
          ("metrics", c.Xmobs.Ctx.c_metrics) ]
        @ (match c.Xmobs.Ctx.c_profile with
          | None -> []
          | Some frames -> [ ("profile", Xmobs.Profile.to_json frames) ])
      in
      json_ok (Xmutil.Json.Obj fields)

let trace_prefix = "/debug/trace/"

(* ---------- incidents ---------- *)

let debug_incidents () =
  json_ok
    (Xmutil.Json.Obj
       [ ("enabled", Xmutil.Json.Bool (Xmobs.Flight.enabled ()));
         ("dir",
          match Xmobs.Flight.dir () with
          | None -> Xmutil.Json.Null
          | Some d -> Xmutil.Json.String d);
         ("incidents",
          Xmutil.Json.List
            (List.map
               (fun (name, size) ->
                 Xmutil.Json.Obj
                   [ ("name", Xmutil.Json.String name);
                     ("size_bytes", Xmutil.Json.Int size) ])
               (Xmobs.Flight.incidents ()))) ])

(* Only names the recorder itself produces are served — a path component
   or traversal in the request can never escape the incident dir. *)
let safe_bundle_name n =
  String.length n > 0
  && String.starts_with ~prefix:"incident-" n
  && Filename.check_suffix n ".json"
  && not (String.contains n '/')
  && not (String.contains n '\\')

let incidents_prefix = "/debug/incidents/"

let debug_incident_fetch name =
  if not (safe_bundle_name name) then
    Http.response 404 (Printf.sprintf "no incident %S\n" name)
  else
    match Xmobs.Flight.dir () with
    | None -> Http.response 503 "flight recorder disabled\n"
    | Some dir -> (
        let path = Filename.concat dir name in
        match open_in_bin path with
        | exception Sys_error _ ->
            Http.response 404 (Printf.sprintf "no incident %S\n" name)
        | ic ->
            let len = in_channel_length ic in
            let body = really_input_string ic len in
            close_in_noerr ic;
            Http.response ~content_type:"application/json" 200 body)

let debug_incident_trigger (req : Http.request) =
  if not (Xmobs.Flight.enabled ()) then
    Http.response 503 "flight recorder disabled\n"
  else
    let reason =
      let b = String.trim req.Http.body in
      if b = "" then "manual trigger" else b
    in
    match
      Xmobs.Flight.trigger ~force:true ~kind:Xmobs.Flight.Manual ~reason ()
    with
    | None -> Http.response 500 "incident bundle write failed\n"
    | Some name -> json_ok (Xmutil.Json.Obj [ ("incident", Xmutil.Json.String name) ])

(* Top guards by cumulative window-free time: the labeled family already
   aggregates per guard hash, so the dashboard ranking is a read. *)
let top_guards_json ?(limit = 10) () =
  Xmobs.Metrics.histogram_series "xmorph_guard_seconds"
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
       @ [ ("top_guards", top_guards_json ()) ]))

let healthz t =
  match t.slo with
  | None -> Http.response 200 "ok\n"
  | Some s -> (
      match Slo.evaluate s with
      | [] -> Http.response 200 "ok\n"
      | reasons ->
          Http.response 503 ("degraded\n" ^ String.concat "\n" reasons ^ "\n"))

(* The operator-statistics warehouse, live: what --stats-db has
   accumulated so far this process (including whatever it merged from
   disk at startup).  Off → a one-field JSON so pollers need no special
   case. *)
let debug_opstats () =
  let body =
    match Xmobs.Statdb.db () with
    | None -> Xmutil.Json.Obj [ ("enabled", Xmutil.Json.Bool false) ]
    | Some db ->
        Xmutil.Json.Obj
          [ ("enabled", Xmutil.Json.Bool true);
            ("path",
             Xmutil.Json.String
               (Option.value ~default:"" (Xmobs.Statdb.path ())));
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
  | "GET", "/debug/alerts" -> json_ok (Xmobs.Alerts.to_json ())
  | "GET", "/debug/opstats" -> debug_opstats ()
  | "GET", "/debug/cache" -> json_ok (Xmcache.to_json ())
  | "GET", "/debug/timeseries" -> debug_timeseries t
  | "GET", "/metrics" ->
      Xmobs.Metrics.set_gauge "serve.uptime_s" (now () -. t.started);
      Xmobs.Selfmetrics.sample ~uptime_s:(now () -. t.started) ();
      Http.response ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        200
        (Xmobs.Metrics.to_prometheus
           ~info:
             [ ("version", "2.0");
               ("stores", String.concat "," (List.map fst t.stores)) ]
           ())
  | "GET", "/stats" ->
      json_ok (stats_json t)
  | "GET", "/debug/requests" -> debug_requests ()
  | "GET", "/debug/incidents" -> debug_incidents ()
  | "GET", path when String.starts_with ~prefix:incidents_prefix path ->
      debug_incident_fetch
        (String.sub path
           (String.length incidents_prefix)
           (String.length path - String.length incidents_prefix))
  | "GET", path when String.starts_with ~prefix:trace_prefix path ->
      debug_trace
        (String.sub path (String.length trace_prefix)
           (String.length path - String.length trace_prefix))
  | "POST", "/query" -> handle_query t req
  | "POST", "/update" -> handle_update t req
  | "POST", "/debug/incident" -> debug_incident_trigger req
  | ("GET" | "POST" | "HEAD" | "PUT" | "DELETE"), _ ->
      Http.response 404 (Printf.sprintf "no route %s %s\n" req.Http.meth req.Http.path)
  | m, _ -> Http.response 405 (Printf.sprintf "method %s not allowed\n" m)

let status_class status =
  if status < 300 then "2xx"
  else if status < 400 then "3xx"
  else if status < 500 then "4xx"
  else "5xx"

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

(* Every response — queries and monitoring scrapes alike — lands in the
   cumulative counters, the labeled route/status family, and the rolling
   request/error windows; the serving layer is visible to itself. *)
let record_request t ~route ~status ~wall_s =
  Xmobs.Metrics.inc "serve.requests";
  Xmobs.Metrics.inc ("serve.responses." ^ status_class status);
  Xmobs.Metrics.observe "serve.request.seconds" wall_s;
  Xmobs.Metrics.inc_labeled "xmorph_requests_total"
    [ ("route", route); ("status", string_of_int status) ];
  Xmobs.Timeseries.record t.ts_requests wall_s;
  if status >= 400 then Xmobs.Timeseries.bump t.ts_errors

let shutdown_receive fd =
  try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

(* Worker [w] waits for the request on [fd].  Registered under
   [reading_lock], so [stop] either finds the connection here or, when it
   got there first, the worker sees [stopping] and shuts it itself; the
   entry is cleared before [fd] can be closed. *)
let set_reading t w v =
  Mutex.lock t.reading_lock;
  t.reading.(w) <- v;
  (match v with
  | Some fd when Atomic.get t.stopping -> shutdown_receive fd
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
      let resp =
        try route t req
        with e ->
          Http.response 500 ("internal error: " ^ Printexc.to_string e ^ "\n")
      in
      record_request t ~route:(route_label req) ~status:resp.Http.status
        ~wall_s:(now () -. t0);
      Http.write_response fd resp
  | exception Http.Parse_error m ->
      record_request t ~route:"malformed" ~status:400 ~wall_s:(now () -. t0);
      Http.write_response fd (Http.response 400 (m ^ "\n"))
  | exception Unix.Unix_error _ -> ()

(* One connection, start to close.  Nothing it raises may escape: the
   worker serves the next connection whatever became of this one.  No
   request context outlives the connection on the worker's thread, whose
   id the next request's context is keyed by. *)
let serve_conn t w fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (try handle_conn t w fd
   with e ->
     Printf.eprintf "xmorph serve: connection dropped: %s\n%!"
       (Printexc.to_string e));
  Xmobs.Ctx.uninstall ();
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Worker [w]: accept, serve, close, until [stop] shuts the listener.  A
   failed accept other than the shutdown (EMFILE, say) backs off and
   retries, so the pool never shrinks. *)
let worker t w =
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          serve_conn t w fd;
          loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          loop ()
      | exception Unix.Unix_error _ ->
          if not (Atomic.get t.stopping) then begin
            Thread.delay 0.01;
            loop ()
          end
  in
  loop ()

(* The listener is closed only here, once no worker can call [accept]
   on it: closed any earlier, its descriptor could be reused by a file
   opened meanwhile. *)
let run t =
  List.init t.workers (Thread.create (worker t)) |> List.iter Thread.join;
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create run t)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Join the alert ticker before tearing the listener down: a tick
       mid-shutdown would race the sinks against process exit. *)
    if t.alerts_on then Xmobs.Alerts.disable ();
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Mutex.lock t.reading_lock;
    Array.iter (Option.iter shutdown_receive) t.reading;
    Mutex.unlock t.reading_lock;
    match t.thread with
    | Some th ->
        Thread.join th;
        t.thread <- None
    | None -> ()
  end
