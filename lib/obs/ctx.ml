(* Request-scoped telemetry context.

   A [Ctx.t] is the one span sink: a span buffer (the {!Trace.Recorder}
   type and exporter), atomic I/O counters and the query record for one
   unit of work, and optionally a {!Frames.tree} of profiler frames,
   installed in a thread-keyed slot while it runs.  The
   serve daemon installs one per request on the request's worker thread,
   so concurrent requests get disjoint traces; the CLI's [--trace]
   installs one on the main thread for the whole command.
   Instrumentation points consult {!current} and record into the
   installed context when there is one; without one, spans are not
   recorded.

   Store I/O is the exception: a charge is too frequent for a slot
   lookup.  An operation over a store (a render, an in-situ query, a
   value update) resolves {!current} once and hands the context it got
   to every charge it makes, which then adds to the context's counters
   directly ([charge_read], [charge_write]).

   Zero-alloc contract: with no context installed anywhere, every probe
   ([current], [add_attr], ...) is a single [Atomic.get] of the
   installed-context count and an immediate fall-through — no lock, no
   allocation — so plain [xmorph run] pays nothing for the attribution
   machinery.  The profiler's gate is a second count, of contexts that
   keep frames.

   Threading model: serve handles each request on one systhread, so the
   slot key is the thread id and everything recorded between [install] and
   [uninstall] on that thread belongs to the request.  The library starts
   no domains: a render runs, and charges its I/O, on the thread that
   called it, so per-request I/O attribution is exact. *)

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
  traced : bool;  (* its id is stamped into query records *)
  span_id : string;  (* this hop's id, sent downstream in [traceparent] *)
  parent_span : string option;
  created : float;  (* Unix time; also the span-timestamp epoch *)
  (* written only by the installing thread — instrumentation runs on the
     request's own systhread *)
  spans : Trace.Recorder.t;
  (* per-request I/O deltas: atomics so adds commute like the store's
     Io_stats counters they shadow *)
  c_bytes_read : int Atomic.t;
  c_bytes_written : int Atomic.t;
  c_read_ops : int Atomic.t;
  c_write_ops : int Atomic.t;
  (* the request's executed-query record, set by the installing thread *)
  mutable qlog : Qlog.entry option;
  (* profiler frames, while someone asks; written by the installing thread *)
  mutable frames : Frames.tree option;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ?trace_id ?parent_span () =
  let trace_id =
    match trace_id with Some id -> id | None -> fresh_trace_id ()
  in
  let created = Unix.gettimeofday () in
  {
    trace_id;
    traced = true;
    span_id = fresh_span_id ();
    parent_span;
    created;
    spans = Trace.Recorder.create ~capacity ~epoch:created;
    c_bytes_read = Atomic.make 0;
    c_bytes_written = Atomic.make 0;
    c_read_ops = Atomic.make 0;
    c_write_ops = Atomic.make 0;
    qlog = None;
    frames = None;
  }

(* A context made only to keep frames: no trace is exported from it, so
   query records made under it carry no trace id. *)
let untraced () = { (create ()) with traced = false }

let trace_id t = t.trace_id

let traced_id t = if t.traced then Some t.trace_id else None

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

(* Restores the binding it replaced: a nested call keeps the outer one. *)
let with_ctx t f =
  let prev = current () in
  install t;
  Fun.protect f ~finally:(fun () ->
      match prev with Some p -> install p | None -> uninstall ())

(* ---------- profiler frames ---------- *)

(* [keeping] counts contexts that keep frames: the profiler's gate. *)
let keeping = Atomic.make 0

let profiling () = Atomic.get keeping > 0

let frames () =
  if Atomic.get keeping = 0 then None
  else match current () with Some c -> c.frames | None -> None

(* The calling thread's context, or an untraced one to install. *)
let current_or_untraced () =
  match current () with Some c -> c | None -> untraced ()

let keep_frames () =
  let c = current_or_untraced () in
  install c;
  match c.frames with
  | Some tr -> tr
  | None ->
      let tr = Frames.create () in
      c.frames <- Some tr;
      Atomic.incr keeping;
      tr

let profiled f =
  let c = current_or_untraced () in
  let tr = Frames.create () and prev = c.frames in
  let v =
    with_ctx c (fun () ->
        c.frames <- Some tr;
        if Option.is_none prev then Atomic.incr keeping;
        Fun.protect f ~finally:(fun () ->
            c.frames <- prev;
            if Option.is_none prev then Atomic.decr keeping))
  in
  (v, Frames.roots tr)

(* ---------- span recording ---------- *)

(* A span carries the store I/O charged to [t] while it was open, as
   [bytes_read]/[bytes_written] attributes when non-zero. *)
let with_span ?attrs t name f =
  let r0 = Atomic.get t.c_bytes_read and w0 = Atomic.get t.c_bytes_written in
  let add_io () =
    let r = Atomic.get t.c_bytes_read - r0
    and w = Atomic.get t.c_bytes_written - w0 in
    if r <> 0 then Trace.Recorder.add_attr t.spans "bytes_read" (Trace.Int r);
    if w <> 0 then
      Trace.Recorder.add_attr t.spans "bytes_written" (Trace.Int w)
  in
  Trace.Recorder.with_span ?attrs t.spans name (fun () ->
      match f () with
      | v ->
          add_io ();
          v
      | exception e ->
          add_io ();
          raise e)

let add_attr key v =
  match current () with
  | Some c -> Trace.Recorder.add_attr c.spans key v
  | None -> ()

let entries t = Trace.Recorder.entries t.spans

let trace_json t = Trace.json_of_entries (entries t)

(* ---------- per-request I/O ---------- *)

(* The page model of the store's I/O accounting: [Store.Io_stats] counts
   blocks with these, and a context's frames count the pages a charge
   crossed with them. *)
let block_size = 4096

let blocks_of bytes = (bytes + block_size - 1) / block_size

(* The pages a charge crossed on a store counter that stood at [before]. *)
let crossed ~before bytes = blocks_of (before + bytes) - blocks_of before

(* [c] was resolved once by the operation charging it: no lookup here. *)
let charge_read c ~before bytes =
  ignore (Atomic.fetch_and_add c.c_bytes_read bytes);
  Atomic.incr c.c_read_ops;
  match c.frames with
  | Some tr -> tr.Frames.blocks_r <- tr.Frames.blocks_r + crossed ~before bytes
  | None -> ()

let charge_write c ~before bytes =
  ignore (Atomic.fetch_and_add c.c_bytes_written bytes);
  Atomic.incr c.c_write_ops;
  match c.frames with
  | Some tr -> tr.Frames.blocks_w <- tr.Frames.blocks_w + crossed ~before bytes
  | None -> ()

let io t =
  {
    bytes_read = Atomic.get t.c_bytes_read;
    bytes_written = Atomic.get t.c_bytes_written;
    read_ops = Atomic.get t.c_read_ops;
    write_ops = Atomic.get t.c_write_ops;
  }

(* ---------- the request's query record ---------- *)

let attach_qlog e =
  match current () with Some c -> c.qlog <- Some e | None -> ()

(* ---------- the finished request ---------- *)

type finished = {
  c_trace_id : string;
  c_label : string;
  c_outcome : string;
  c_status : int;
  c_wall_s : float;
  c_ts : float;
  c_io : io;
  c_span_count : int;
  c_entries : Trace.span list;
  c_qlog : Qlog.entry option;
  c_profile : Frames.frame list option;
}

(* A context holding a query record is named by it: its guard hash and
   outcome, unless the caller names the request itself. *)
let finish ?profile ?label ?outcome t ~status ~wall_s =
  let spans = entries t in
  let named field given =
    match (given, t.qlog) with
    | Some v, _ -> v
    | None, Some q -> field q
    | None, None -> ""
  in
  {
    c_trace_id = t.trace_id;
    c_label = named (fun q -> q.Qlog.guard_hash) label;
    c_outcome = named (fun q -> Qlog.outcome_to_string q.Qlog.outcome) outcome;
    c_status = status;
    c_wall_s = wall_s;
    c_ts = t.created;
    c_io = io t;
    c_span_count = List.length spans;
    c_entries = spans;
    c_qlog = t.qlog;
    c_profile = profile;
  }
