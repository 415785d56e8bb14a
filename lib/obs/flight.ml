(* The flight recorder: an always-on black box for incident forensics.

   While enabled, it keeps a bounded ring of periodic metric snapshots,
   and, on a trigger (SLO breach, error-rate threshold, fatal signal, or a
   manual POST), atomically writes a versioned JSON incident bundle so the
   evidence survives the moment of failure.  The bundle's recent requests
   are not kept here: their spans and query records are read from the
   completed-request ring (Ctx), where every served request already left
   its own.

   The standard Xmobs contract holds: [enabled] is one atomic load, and
   every entry point is a no-op that allocates nothing when the recorder
   is off.  When on, a snapshot feed takes a single mutex held for a clock
   comparison — cheap enough to leave enabled in production (the bench
   section [bench/main.exe -- flight] pins the enabled-idle overhead).

   Dependency direction: Flight sits above Trace/Ctx/Qlog/Metrics inside
   xmobs and knows nothing about serve, the cache, or stores.  Context
   that only the server can provide (store generations, cache
   introspection, config, SLO state, the request ring) arrives through
   an injected provider callback ([set_context_provider]). *)

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

type state = {
  dir : string;
  retention : int;
  cooldown_s : float;
  snap_ring : (float * Xmutil.Json.t) Xmutil.Ring.t;
  mutable last_snap : float;
  mutable last_fired : (trigger_kind * float) list; (* per-kind cooldown *)
  mutable seq : int; (* disambiguates bundles written in the same ms *)
  mutable context : (unit -> Xmutil.Json.t) option;
  lock : Mutex.t;
}

(* One atomic load gates every entry point; the state ref is only read
   behind it. *)
let on = Atomic.make false

let state : state option ref = ref None

let enabled () = Atomic.get on

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
let snapshot () =
  if Atomic.get on then
    match !state with
    | None -> ()
    | Some st ->
        let now = Unix.gettimeofday () in
        locked st (fun () ->
            if now -. st.last_snap >= snapshot_interval_s then begin
              st.last_snap <- now;
              Xmutil.Ring.push st.snap_ring (now, Metrics.to_json ())
            end)

let set_context_provider f =
  match !state with None -> () | Some st -> st.context <- Some f

(* ---------- bundle assembly ---------- *)

(* The newest completed requests' spans ([requests] is newest first),
   at most [bundle_spans] of them, newest kept.  Each request's
   timestamps count from its own creation; shifting them by its [c_ts]
   puts every request on one clock, microseconds since the earliest kept
   request began. *)
let request_spans requests =
  let rec keep budget acc = function
    | (c : Ctx.completed) :: older when budget > 0 ->
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
  let requests = Ctx.completed () in
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
      ("metrics", Metrics.to_json ());
      ("snapshots", Xmutil.Json.List snaps);
      ("selfmetrics", selfmetrics_json ());
      ("context",
       match st.context with
       | Some f -> (try f () with _ -> Xmutil.Json.Null)
       | None -> Xmutil.Json.Null) ]

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

let incidents () =
  match !state with
  | None -> []
  | Some st ->
      List.map
        (fun n ->
          let size =
            try (Unix.stat (Filename.concat st.dir n)).Unix.st_size
            with Unix.Unix_error _ -> 0
          in
          (n, size))
        (incident_files st.dir)

let dir () = match !state with None -> None | Some st -> Some st.dir

let enforce_retention_unlocked st =
  let files = incident_files st.dir in
  let excess = List.length files - st.retention in
  if excess > 0 then
    List.iteri
      (fun i n ->
        if i < excess then
          try Sys.remove (Filename.concat st.dir n) with Sys_error _ -> ())
      files

(* Temp-file + rename in the same directory: a reader (the /debug route,
   the offline viewer, a cram test) never sees a half-written bundle. *)
let write_bundle_unlocked st ~name json =
  let path = Filename.concat st.dir name in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Xmutil.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let trigger ?(force = false) ~kind ~reason () =
  if not (Atomic.get on) then None
  else
    match !state with
    | None -> None
    | Some st ->
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
              st.last_fired <-
                (kind, now) :: List.remove_assoc kind st.last_fired;
              st.seq <- st.seq + 1;
              let name =
                Printf.sprintf "incident-%013.0f-%03d-%s.json" (now *. 1000.)
                  st.seq (kind_to_string kind)
              in
              match
                let json = bundle_unlocked st ~kind ~reason ~now in
                write_bundle_unlocked st ~name json;
                enforce_retention_unlocked st
              with
              | () ->
                  Metrics.inc_labeled "xmorph_incidents_total"
                    [ ("trigger", kind_to_string kind) ];
                  Some name
              (* A full disk or a removed directory must not take the
                 serving path down with it. *)
              | exception (Sys_error _ | Unix.Unix_error _) -> None
            end)

(* ---------- lifecycle ---------- *)

let shutdown_registered = ref false

let enable ?(retention = default_retention) ?(cooldown_s = default_cooldown_s)
    ~dir () =
  (try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error _ -> ());
  let st =
    {
      dir;
      retention = max 1 retention;
      cooldown_s = Float.max 0.0 cooldown_s;
      snap_ring = Xmutil.Ring.create 32;
      last_snap = 0.0;
      last_fired = [];
      seq = 0;
      context = None;
      lock = Mutex.create ();
    }
  in
  state := Some st;
  Atomic.set on true;
  if not !shutdown_registered then begin
    shutdown_registered := true;
    (* Dying on SIGTERM/SIGINT is itself an incident: the bundle captures
       what the process was doing when it was killed.  Clean exits write
       nothing.  [force] bypasses the cooldown — a just-fired SLO breach
       must not suppress the crash bundle. *)
    Shutdown.on_exit (fun () ->
        match Shutdown.last_signal () with
        | None -> ()
        | Some n ->
            ignore
              (trigger ~force:true ~kind:Signal
                 ~reason:(Printf.sprintf "terminated by signal (exit %d)"
                            (Shutdown.signal_exit_code n))
                 ()))
  end

let disable () =
  Atomic.set on false;
  state := None
