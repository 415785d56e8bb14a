(* Request-scoped telemetry context.

   A [Ctx.t] is the one region instrument: a stack of open regions, a
   bounded ring of spans (exported by {!Trace.json_of_entries}), atomic
   I/O counters and the query record for one unit of work, and
   optionally a {!Frames.tree} of profiler frames, installed in a
   thread-keyed slot while it runs.  The serve daemon installs one per
   request on the request's worker thread, so concurrent requests get
   disjoint traces; the CLI's [--trace] installs one on the main thread
   for the whole command.

   A region is a timed stretch of work on the context's one stack.  At
   close it is appended as a span when the context traces, and folded
   into the frame tree when the context keeps frames, both from one pair
   of clock reads.  Its grain is fixed by its name: a layer ([region],
   [region_in]: the pipeline's named stages) is kept in both forms; an
   operator ([enter]/[exit]: an algebra operator or an XQuery expression,
   repeated per item) only as a frame.

   [region] resolves the calling thread's context; with none installed
   anywhere it is one [Atomic.get] of the installed-context count, the
   one gate, and a tail call.  Hot paths do not consult the slot: an
   operation (a render, a type analysis, an XQuery evaluation, a value
   update) resolves {!current} once and hands the context it got to its
   operator regions, counts and store charges, which then read the
   context's fields directly: no gate, no lock, no allocation unless
   something is recorded.

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
  spans : Trace.span Xmutil.Ring.t;
  mutable next_span : int;
  mutable regions : region list; (* open regions, innermost first *)
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

(* An open region.  [span] is its span's id, or -1 when it records none
   (an operator, or any region of an untraced context); [up] is the id
   of the span it opened inside, or -1.  [frame] is its frame in [tree],
   the context's frame tree when it opened, or [no_frame] in [no_tree]
   when the context kept none. *)
and region = {
  name : string;
  t0 : float;
  span : int;
  up : int;
  tree : Frames.tree;
  frame : Frames.frame;
  read0 : int; (* the context's byte counters at open *)
  written0 : int;
  blocks_r0 : int; (* [tree]'s page crossings at open *)
  blocks_w0 : int;
  mutable attrs : (string * Trace.value) list;
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
    spans = Xmutil.Ring.create capacity;
    next_span = 0;
    regions = [];
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

(* [installed] counts live slots; it is the zero-alloc gate, the only
   one, that every slot probe checks first.  The slot table itself is cold (touched once per request
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

let frames () = match current () with Some c -> c.frames | None -> None

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
      tr

let profiled f =
  let c = current_or_untraced () in
  let tr = Frames.create () and prev = c.frames in
  let v =
    with_ctx c (fun () ->
        c.frames <- Some tr;
        Fun.protect f ~finally:(fun () -> c.frames <- prev))
  in
  (v, Frames.roots tr)

(* ---------- regions ---------- *)

let no_tree = Frames.create ()

let no_frame = Frames.fresh ""

(* What [enter] returns when nothing is recorded. *)
let none =
  { name = ""; t0 = 0.0; span = -1; up = -1; tree = no_tree;
    frame = no_frame; read0 = 0; written0 = 0; blocks_r0 = 0; blocks_w0 = 0;
    attrs = [] }

let push t ~spanned ?(attrs = []) name =
  let up =
    match t.regions with
    | [] -> -1
    | r :: _ -> if r.span >= 0 then r.span else r.up
  in
  let span = if spanned then t.next_span else -1 in
  if spanned then t.next_span <- span + 1;
  let tree, frame =
    match t.frames with
    | None -> (no_tree, no_frame)
    | Some tree ->
        let parent =
          match t.regions with
          | r :: _ when r.tree == tree -> Some r.frame
          | _ -> None
        in
        (tree, Frames.child tree parent name)
  in
  let r =
    { name; t0 = Unix.gettimeofday (); span; up; tree; frame;
      read0 = Atomic.get t.c_bytes_read;
      written0 = Atomic.get t.c_bytes_written; blocks_r0 = tree.blocks_r;
      blocks_w0 = tree.blocks_w; attrs }
  in
  t.regions <- r :: t.regions;
  r

(* Close [r]: one clock read gives both its span's duration and its
   frame's time.  A span carries the store I/O charged to [t] while it
   was open, as [bytes_read]/[bytes_written] attributes when non-zero. *)
let pop ?(in_count = 0) ?(out_count = 0) t r =
  let us = (Unix.gettimeofday () -. r.t0) *. 1e6 in
  t.regions <-
    (match t.regions with
    | x :: rest when x == r -> rest
    | rs -> List.filter (fun x -> x != r) rs);
  if r.tree != no_tree then begin
    let fr = r.frame in
    fr.calls <- fr.calls + 1;
    fr.total_us <- fr.total_us +. us;
    fr.in_count <- fr.in_count + in_count;
    fr.out_count <- fr.out_count + out_count;
    fr.blocks_read <- fr.blocks_read + (r.tree.blocks_r - r.blocks_r0);
    fr.blocks_written <- fr.blocks_written + (r.tree.blocks_w - r.blocks_w0);
    match t.regions with
    | p :: _ when p.tree == r.tree -> p.frame.child_us <- p.frame.child_us +. us
    | _ -> ()
  end;
  if r.span >= 0 then begin
    let io key c0 c attrs =
      let d = Atomic.get c - c0 in
      if d <> 0 then (key, Trace.Int d) :: attrs else attrs
    in
    Xmutil.Ring.push t.spans
      { Trace.id = r.span; parent = r.up; name = r.name;
        start_us = (r.t0 -. t.created) *. 1e6; dur_us = us;
        attrs =
          io "bytes_written" r.written0 t.c_bytes_written
            (io "bytes_read" r.read0 t.c_bytes_read r.attrs) }
  end

let recording = function
  | Some t -> t.traced || Option.is_some t.frames
  | None -> false

let keeps_frames = function Some { frames = Some _; _ } -> true | _ -> false

let region_in ?attrs ctx name f =
  match ctx with
  | Some t when recording ctx -> (
      let r = push t ~spanned:t.traced ?attrs name in
      match f () with
      | v ->
          pop t r;
          v
      | exception e ->
          pop t r;
          raise e)
  | _ -> f ()

let region ?attrs name f =
  if Atomic.get installed = 0 then f () else region_in ?attrs (current ()) name f

let enter ctx name =
  match ctx with
  | Some ({ frames = Some _; _ } as t) -> push t ~spanned:false name
  | _ -> none

let exit ?in_count ?out_count ctx r =
  match ctx with
  | Some t when r != none -> pop ?in_count ?out_count t r
  | _ -> ()

(* Counts go to the innermost open region's frame. *)
let count ctx n add =
  match ctx with
  | Some { frames = Some tree; regions = r :: _; _ } when r.tree == tree ->
      add r.frame n
  | _ -> ()

let add_in ctx n = count ctx n (fun fr n -> fr.in_count <- fr.in_count + n)

let add_out ctx n = count ctx n (fun fr n -> fr.out_count <- fr.out_count + n)

let add_pairs ctx n = count ctx n (fun fr n -> fr.pairs <- fr.pairs + n)

let add_attr key v =
  match current () with
  | Some c -> (
      match List.find_opt (fun r -> r.span >= 0) c.regions with
      | Some r -> r.attrs <- (key, v) :: r.attrs
      | None -> ())
  | None -> ()

let entries t = Xmutil.Ring.to_list t.spans

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
