(* The flight recorder: an always-on black box for incident forensics.

   While enabled, it keeps a bounded ring of periodic snapshots of its
   owner's metrics registry, and, on a trigger (SLO breach, error-rate
   threshold, fatal signal, or a manual POST), atomically writes
   ([Xmutil.Json.write_file]) a versioned JSON incident bundle so the
   evidence survives the moment of failure.  The bundle's recent requests are not kept here: their spans
   and query records are read through the owner's [requests] callback,
   from the request ring where every served request already left its
   own.

   A recorder is a value its owner holds (the serve daemon, one per
   server); a daemon without one has no recorder to consult.  A snapshot
   feed takes a single mutex held for a clock comparison — cheap enough
   to leave on in production (the bench section
   [bench/main.exe -- flight] pins the enabled-idle overhead).

   Dependency direction: Flight sits above Trace/Ctx/Qlog/Metrics inside
   xmobs and knows nothing about serve, the cache, or stores.  What only
   the server can provide arrives through [create]: its registry, its
   finished requests ([requests]), and the rest of its state (store
   generations, cache introspection, config, SLO state) through the
   [context] callback. *)

let version = 1

type trigger_kind = Slo_breach | Error_rate | Signal | Manual | Alert

let kind_to_string = function
  | Slo_breach -> "slo-breach"
  | Error_rate -> "error-rate"
  | Signal -> "signal"
  | Manual -> "manual"
  | Alert -> "alert"

let kinds =
  List.map kind_to_string [ Slo_breach; Error_rate; Signal; Manual; Alert ]

type t = {
  dir : string;
  retention : int;
  cooldown_s : float;
  snap_ring : (float * Xmutil.Json.t) Xmutil.Ring.t;
  mutable last_snap : float;
  mutable last_fired : (trigger_kind * float) list; (* per-kind cooldown *)
  mutable seq : int; (* disambiguates bundles written in the same ms *)
  context : unit -> Xmutil.Json.t;
  metrics : Metrics.t;
  requests : unit -> Ctx.finished list; (* newest first *)
  lock : Mutex.t;
}

(* The most span entries a bundle carries. *)
let bundle_spans = 2048

(* Metric snapshots are taken at most once per this many seconds. *)
let snapshot_interval_s = 1.0

let default_retention = 16

let default_cooldown_s = 30.0

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* ---------- the snapshot feed (hot path when enabled) ---------- *)

(* The server calls this after each query; no sampling thread. *)
let snapshot st =
  let now = Unix.gettimeofday () in
  locked st (fun () ->
      if now -. st.last_snap >= snapshot_interval_s then begin
        st.last_snap <- now;
        Xmutil.Ring.push st.snap_ring (now, Metrics.to_json ~r:st.metrics ())
      end)

(* ---------- bundle assembly ---------- *)

(* The newest completed requests' spans ([requests] is newest first),
   at most [bundle_spans] of them, newest kept.  Each request's
   timestamps count from its own creation; shifting them by its [c_ts]
   puts every request on one clock, microseconds since the earliest kept
   request began. *)
let request_spans requests =
  let rec keep budget acc = function
    | (c : Ctx.finished) :: older when budget > 0 ->
        let es = c.Ctx.c_entries in
        let n = List.length es in
        let es =
          if n <= budget then es
          else List.filteri (fun i _ -> i >= n - budget) es
        in
        keep (budget - n) ((c.Ctx.c_ts, es) :: acc) older
    | _ -> acc
  in
  let kept = keep bundle_spans [] requests in
  let epoch = List.fold_left (fun m (ts, _) -> Float.min m ts) infinity kept in
  List.concat_map
    (fun (ts, es) ->
      let off = (ts -. epoch) *. 1e6 in
      List.map
        (fun (s : Trace.span) -> { s with start_us = s.start_us +. off })
        es)
    kept

let selfmetrics_json () =
  let opt_int name v rest =
    match v with None -> rest | Some i -> (name, Xmutil.Json.Int i) :: rest
  in
  Xmutil.Json.Obj
    (opt_int "rss_bytes" (Selfmetrics.rss_bytes ())
       (opt_int "open_fds" (Selfmetrics.open_fds ())
          (opt_int "threads_total" (Selfmetrics.threads_total ()) [])))

let bundle_unlocked st ~kind ~reason ~now =
  let snaps =
    List.map
      (fun (ts, m) ->
        Xmutil.Json.Obj
          [ ("ts_ms", Xmutil.Json.Int (int_of_float (Float.round (ts *. 1000.))));
            ("metrics", m) ])
      (Xmutil.Ring.to_list st.snap_ring)
  in
  let requests = st.requests () in
  let qlog = List.rev (List.filter_map (fun c -> c.Ctx.c_qlog) requests) in
  Xmutil.Json.Obj
    [ ("version", Xmutil.Json.Int version);
      ("trigger",
       Xmutil.Json.Obj
         [ ("kind", Xmutil.Json.String (kind_to_string kind));
           ("reason", Xmutil.Json.String reason);
           ("ts_ms", Xmutil.Json.Int (int_of_float (Float.round (now *. 1000.)))) ]);
      ("trace", Trace.json_of_entries (request_spans requests));
      ("qlog", Xmutil.Json.List (List.map Qlog.entry_to_json qlog));
      ("metrics", Metrics.to_json ~r:st.metrics ());
      ("snapshots", Xmutil.Json.List snaps);
      ("selfmetrics", selfmetrics_json ());
      ("context", try st.context () with _ -> Xmutil.Json.Null) ]

(* ---------- incident files ---------- *)

let is_bundle_name n =
  String.length n > 9
  && String.sub n 0 9 = "incident-"
  && Filename.check_suffix n ".json"

let incident_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      let l = List.filter is_bundle_name (Array.to_list entries) in
      (* The name embeds the millisecond timestamp then a monotonic
         sequence number, so lexicographic order is chronological. *)
      List.sort compare l

let incidents st =
  List.map
    (fun n ->
      let size =
        try (Unix.stat (Filename.concat st.dir n)).Unix.st_size
        with Unix.Unix_error _ -> 0
      in
      (n, size))
    (incident_files st.dir)

let dir st = st.dir

let enforce_retention_unlocked st =
  let files = incident_files st.dir in
  let excess = List.length files - st.retention in
  if excess > 0 then
    List.iteri
      (fun i n ->
        if i < excess then
          try Sys.remove (Filename.concat st.dir n) with Sys_error _ -> ())
      files

let trigger st ?(force = false) ~kind ~reason () =
  locked st (fun () ->
      let now = Unix.gettimeofday () in
      let cooled =
        force
        || match List.assoc_opt kind st.last_fired with
           | Some t -> now -. t >= st.cooldown_s
           | None -> true
      in
      if not cooled then None
      else begin
        st.last_fired <- (kind, now) :: List.remove_assoc kind st.last_fired;
        st.seq <- st.seq + 1;
        let name =
          Printf.sprintf "incident-%013.0f-%03d-%s.json" (now *. 1000.) st.seq
            (kind_to_string kind)
        in
        match
          let json = bundle_unlocked st ~kind ~reason ~now in
          Xmutil.Json.write_file (Filename.concat st.dir name) json;
          enforce_retention_unlocked st
        with
        | () ->
            Metrics.inc_labeled ~r:st.metrics "xmorph_incidents_total"
              [ ("trigger", kind_to_string kind) ];
            Some name
        (* A full disk or a removed directory must not take the serving
           path down with it. *)
        | exception (Sys_error _ | Unix.Unix_error _) -> None
      end)

(* ---------- lifecycle ---------- *)

(* The directory is made here, once, so that a recorder that cannot
   write its bundles is refused at startup instead of dropping every
   bundle later without a word. *)
let create ?(retention = default_retention) ?(cooldown_s = default_cooldown_s)
    ?(context = fun () -> Xmutil.Json.Null) ~requests ~metrics ~dir () =
  let is_dir () = try Sys.is_directory dir with Sys_error _ -> false in
  let made =
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when is_dir () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Error "not a directory"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let writable () =
    match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  match Result.bind made writable with
  | Error m ->
      Error (Printf.sprintf "cannot create incident directory %s: %s" dir m)
  | Ok () ->
      Ok
        {
          dir;
          retention = max 1 retention;
          cooldown_s = Float.max 0.0 cooldown_s;
          snap_ring = Xmutil.Ring.create 32;
          last_snap = 0.0;
          last_fired = [];
          seq = 0;
          context;
          metrics;
          requests;
          lock = Mutex.create ();
        }
