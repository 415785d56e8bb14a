(* Request-scoped telemetry context.

   The process-global tracer/metrics/profiler are the right sinks for a
   one-shot CLI run, but the serve daemon executes many guards at once on
   worker threads: their spans and I/O deltas interleave in the global
   state and cannot be attributed back to a request.  A [Ctx.t] is the
   per-request counterpart — its own span buffer (same representation and
   exporter as {!Trace}), its own atomic I/O counters, its own metric
   increments — installed in a thread-keyed slot for the duration of one
   request.  Instrumentation points consult {!current} and record into the
   installed context when there is one, falling back to the global sinks
   otherwise.

   Zero-alloc contract: with no context installed anywhere, every probe
   ([current], [charge_read], [bump], ...) is a single [Atomic.get] of the
   installed-context count and an immediate fall-through — no lock, no
   allocation — so plain [xmorph run] pays nothing for the serve daemon's
   attribution machinery.

   Threading model: serve handles each request on one systhread, so the
   slot key is the thread id and everything recorded between [install] and
   [uninstall] on that thread belongs to the request.  Charges arriving
   from {!Xmutil.Pool} worker *domains* (parallel render sections) carry a
   different thread id and miss the slot: they stay global-only, exactly
   like gauge publication in [Store.Io_stats].  Per-request I/O attribution
   is therefore exact at jobs = 1 (which serve uses per request) and a
   lower bound under data-parallel render. *)

(* ---------- ids ---------- *)

(* splitmix64: a cheap, well-mixed 64-bit permutation.  Seeded from wall
   clock + pid + a process-global counter, so ids are unique within a
   process by construction and collide across processes only if two
   daemons share a pid and a gettimeofday quantum. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let id_counter = Atomic.make 0

let id_seed () =
  let c = Atomic.fetch_and_add id_counter 1 in
  Int64.logxor
    (Int64.bits_of_float (Unix.gettimeofday ()))
    (Int64.of_int ((Unix.getpid () lsl 20) lxor (c * 0x9e3779b9)))

let non_zero ~bits s = if String.for_all (fun c -> c = '0') s then bits else s

let fresh_trace_id () =
  let seed = id_seed () in
  non_zero ~bits:"00000000000000000000000000000001"
    (Printf.sprintf "%016Lx%016Lx" (mix64 seed)
       (mix64 (Int64.add seed 0x9e3779b97f4a7c15L)))

let fresh_span_id () =
  non_zero ~bits:"0000000000000001"
    (Printf.sprintf "%016Lx" (mix64 (Int64.add (id_seed ()) 0x6a09e667f3bcc909L)))

(* ---------- W3C traceparent ---------- *)

(* version "00": [00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>].
   The spec mandates lowercase hex; all-zero trace or span ids and version
   [ff] are invalid; a higher (future) version may carry extra "-"-led
   fields.  Anything malformed is rejected wholesale — the caller starts a
   fresh trace instead. *)
let is_lower_hex s =
  s <> ""
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let all_zero s = String.for_all (fun c -> c = '0') s

let parse_traceparent h =
  let h = String.trim h in
  if String.length h < 55 then None
  else if h.[2] <> '-' || h.[35] <> '-' || h.[52] <> '-' then None
  else
    let version = String.sub h 0 2 in
    let trace_id = String.sub h 3 32 in
    let span_id = String.sub h 36 16 in
    let flags = String.sub h 53 2 in
    let tail_ok =
      String.length h = 55 || (version <> "00" && h.[55] = '-')
    in
    if
      tail_ok && is_lower_hex version && version <> "ff"
      && is_lower_hex trace_id
      && (not (all_zero trace_id))
      && is_lower_hex span_id
      && (not (all_zero span_id))
      && is_lower_hex flags
    then Some (trace_id, span_id)
    else None

(* ---------- the context ---------- *)

type io = {
  bytes_read : int;
  bytes_written : int;
  read_ops : int;
  write_ops : int;
}

type t = {
  trace_id : string;
  span_id : string;  (* this hop's id, sent downstream in [traceparent] *)
  parent_span : string option;
  created : float;  (* Unix time; also the span-timestamp epoch *)
  (* written only by the installing thread — instrumentation runs on the
     request's own systhread *)
  spans : Trace.Recorder.t;
  (* per-request I/O deltas: atomics so adds commute like the global
     Io_stats counters they shadow *)
  c_bytes_read : int Atomic.t;
  c_bytes_written : int Atomic.t;
  c_read_ops : int Atomic.t;
  c_write_ops : int Atomic.t;
  (* per-request metric increments, keyed by metric name *)
  mlock : Mutex.t;
  m_counters : (string, int ref) Hashtbl.t;
  m_observations : (string, (int * float) ref) Hashtbl.t;
  (* the request's executed-query record, set by the installing thread *)
  mutable qlog : Qlog.entry option;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ?trace_id ?parent_span () =
  let trace_id =
    match trace_id with Some id -> id | None -> fresh_trace_id ()
  in
  let created = Unix.gettimeofday () in
  {
    trace_id;
    span_id = fresh_span_id ();
    parent_span;
    created;
    spans = Trace.Recorder.create ~capacity ~epoch:created;
    c_bytes_read = Atomic.make 0;
    c_bytes_written = Atomic.make 0;
    c_read_ops = Atomic.make 0;
    c_write_ops = Atomic.make 0;
    mlock = Mutex.create ();
    m_counters = Hashtbl.create 16;
    m_observations = Hashtbl.create 16;
    qlog = None;
  }

let trace_id t = t.trace_id

let traceparent t = Printf.sprintf "00-%s-%s-01" t.trace_id t.span_id

(* ---------- the thread-keyed slot ---------- *)

(* [installed] counts live slots; it is the zero-alloc gate every probe
   checks first.  The slot table itself is cold (touched once per request
   plus once per probe while any request is in flight). *)
let installed = Atomic.make 0

let active () = Atomic.get installed > 0

let slots : (int, t) Hashtbl.t = Hashtbl.create 16

let slots_lock = Mutex.create ()

let self_key () = Thread.id (Thread.self ())

let install t =
  let k = self_key () in
  Mutex.lock slots_lock;
  if not (Hashtbl.mem slots k) then Atomic.incr installed;
  Hashtbl.replace slots k t;
  Mutex.unlock slots_lock

let uninstall () =
  let k = self_key () in
  Mutex.lock slots_lock;
  if Hashtbl.mem slots k then begin
    Hashtbl.remove slots k;
    Atomic.decr installed
  end;
  Mutex.unlock slots_lock

let current () =
  if Atomic.get installed = 0 then None
  else begin
    let k = self_key () in
    Mutex.lock slots_lock;
    let c = Hashtbl.find_opt slots k in
    Mutex.unlock slots_lock;
    c
  end

let with_ctx t f =
  install t;
  Fun.protect ~finally:uninstall f

(* ---------- span recording ---------- *)

let with_span ?attrs t = Trace.Recorder.with_span ?attrs t.spans

let entries t = Trace.Recorder.entries t.spans

let span_count t =
  List.length
    (List.filter (function Trace.Span _ -> true | Trace.Event _ -> false)
       (entries t))

let trace_json t = Trace.json_of_entries (entries t)

(* ---------- per-request I/O ---------- *)

let charge_read bytes =
  if Atomic.get installed > 0 then
    match current () with
    | Some c ->
        ignore (Atomic.fetch_and_add c.c_bytes_read bytes);
        ignore (Atomic.fetch_and_add c.c_read_ops 1)
    | None -> ()

let charge_write bytes =
  if Atomic.get installed > 0 then
    match current () with
    | Some c ->
        ignore (Atomic.fetch_and_add c.c_bytes_written bytes);
        ignore (Atomic.fetch_and_add c.c_write_ops 1)
    | None -> ()

let io t =
  {
    bytes_read = Atomic.get t.c_bytes_read;
    bytes_written = Atomic.get t.c_bytes_written;
    read_ops = Atomic.get t.c_read_ops;
    write_ops = Atomic.get t.c_write_ops;
  }

(* Matches [Store.Io_stats.block_size]; duplicated so xmobs stays at the
   bottom of the dependency stack. *)
let blocks_of bytes = (bytes + 4095) / 4096

(* ---------- per-request metric increments ---------- *)

let bump ?(by = 1) name =
  if Atomic.get installed > 0 then
    match current () with
    | Some c ->
        Mutex.lock c.mlock;
        (match Hashtbl.find_opt c.m_counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.replace c.m_counters name (ref by));
        Mutex.unlock c.mlock
    | None -> ()

let observe name v =
  if Atomic.get installed > 0 then
    match current () with
    | Some c ->
        Mutex.lock c.mlock;
        (match Hashtbl.find_opt c.m_observations name with
        | Some r ->
            let n, sum = !r in
            r := (n + 1, sum +. v)
        | None -> Hashtbl.replace c.m_observations name (ref (1, v)));
        Mutex.unlock c.mlock
    | None -> ()

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let metrics_json t =
  Mutex.lock t.mlock;
  let counters =
    List.map
      (fun k -> (k, Xmutil.Json.Int !(Hashtbl.find t.m_counters k)))
      (sorted_keys t.m_counters)
  in
  let observations =
    List.map
      (fun k ->
        let n, sum = !(Hashtbl.find t.m_observations k) in
        (k, Xmutil.Json.Obj
              [ ("count", Xmutil.Json.Int n); ("sum", Xmutil.Json.Float sum) ]))
      (sorted_keys t.m_observations)
  in
  Mutex.unlock t.mlock;
  Xmutil.Json.Obj
    [ ("counters", Xmutil.Json.Obj counters);
      ("observations", Xmutil.Json.Obj observations) ]

(* ---------- the request's query record ---------- *)

let attach_qlog e =
  match current () with Some c -> c.qlog <- Some e | None -> ()

(* ---------- the completed-request ring ---------- *)

type completed = {
  c_trace_id : string;
  c_label : string;
  c_outcome : string;
  c_status : int;
  c_wall_s : float;
  c_ts : float;
  c_io : io;
  c_span_count : int;
  c_entries : Trace.entry list;
  c_metrics : Xmutil.Json.t;
  c_qlog : Qlog.entry option;
  mutable c_profile : Xmutil.Json.t option;
}

let default_ring_capacity = 256

let completed_ring : completed Xmutil.Ring.t ref =
  ref (Xmutil.Ring.create default_ring_capacity)

let ring_lock = Mutex.create ()

let locked f =
  Mutex.lock ring_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_lock) f

(* A fresh ring keeps the newest entries that fit the new bound. *)
let set_ring_capacity n =
  locked (fun () ->
      let r = Xmutil.Ring.create n in
      List.iter (Xmutil.Ring.push r) (Xmutil.Ring.to_list !completed_ring);
      completed_ring := r)

let finish t ~label ~outcome ~status ~wall_s =
  let entry =
    {
      c_trace_id = t.trace_id;
      c_label = label;
      c_outcome = outcome;
      c_status = status;
      c_wall_s = wall_s;
      c_ts = t.created;
      c_io = io t;
      c_span_count = span_count t;
      c_entries = entries t;
      c_metrics = metrics_json t;
      c_qlog = t.qlog;
      c_profile = None;
    }
  in
  locked (fun () -> Xmutil.Ring.push !completed_ring entry)

let completed () =
  List.rev (locked (fun () -> Xmutil.Ring.to_list !completed_ring))

let find_completed id =
  List.find_opt (fun c -> String.equal c.c_trace_id id) (completed ())

let attach_profile ~trace_id json =
  match find_completed trace_id with
  | Some c ->
      c.c_profile <- Some json;
      true
  | None -> false

let reset_completed () = locked (fun () -> Xmutil.Ring.clear !completed_ring)
