(* The structured query log.

   One JSONL record per guard/query execution, shared by every surface
   (serve daemon, one-shot CLI subcommands, the shell), so a workload can
   be aggregated after the fact regardless of how it was executed.

   Writer design: records are serialized to a single line immediately and
   appended to a bounded in-memory buffer under a mutex; when the buffer
   crosses [cap] bytes it spills to the file.  The mutex makes concurrent
   [log] calls (serve worker threads, any domain) emit
   whole lines — a reader can never see an interleaved or partial record
   short of the process being killed uncleanly mid-spill.  [flush] is
   cheap and idempotent.  The writer's owner (the CLI, for --qlog)
   registers its close on the Shutdown path, so SIGTERM/SIGINT leave a
   complete, valid log behind. *)

type outcome = Ok | Parse_error | Type_mismatch | Internal

let outcome_to_string = function
  | Ok -> "ok"
  | Parse_error -> "parse-error"
  | Type_mismatch -> "type-mismatch"
  | Internal -> "internal"

let outcomes = [ Ok; Parse_error; Type_mismatch; Internal ]

let outcome_of_string s = List.find_opt (fun o -> outcome_to_string o = s) outcomes

type io = {
  bytes_read : int;
  bytes_written : int;
  blocks_read : int;
  blocks_written : int;
  read_ops : int;
  write_ops : int;
}

type entry = {
  ts : float;
  id : int;
  trace_id : string option;
  source : string;
  doc : string;
  guard : string;
  guard_hash : string;
  query_hash : string option;
  classification : string option;
  outcome : outcome;
  error : string option;
  wall_s : float;
  eval_s : float;
  render_s : float;
  in_nodes : int;
  out_nodes : int;
  io : io option;
  cached : bool;
  generation : int option;
}

let id_counter = Atomic.make 0

let next_id () = Atomic.fetch_and_add id_counter 1

(* FNV-1a, 64-bit.  A stable, dependency-free content hash: equal guards
   get equal hashes across runs and machines, so a log analyzer can group
   by guard without storing the (possibly long) text twice. *)
let hash_text s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let io_to_json (io : io) =
  Xmutil.Json.Obj
    [ ("bytes_read", Xmutil.Json.Int io.bytes_read);
      ("bytes_written", Xmutil.Json.Int io.bytes_written);
      ("blocks_read", Xmutil.Json.Int io.blocks_read);
      ("blocks_written", Xmutil.Json.Int io.blocks_written);
      ("read_ops", Xmutil.Json.Int io.read_ops);
      ("write_ops", Xmutil.Json.Int io.write_ops) ]

let entry_to_json (e : entry) =
  let opt name v rest =
    match v with None -> rest | Some s -> (name, Xmutil.Json.String s) :: rest
  in
  Xmutil.Json.Obj
    (* ts as integer milliseconds: the generic float printer keeps only
       6 significant digits, which would truncate a Unix timestamp to
       ~17-minute granularity. *)
    ([ ("ts_ms", Xmutil.Json.Int (int_of_float (Float.round (e.ts *. 1000.))));
       ("id", Xmutil.Json.Int e.id) ]
    @ opt "trace_id" e.trace_id []
    @ [ ("source", Xmutil.Json.String e.source);
       ("doc", Xmutil.Json.String e.doc);
       ("guard", Xmutil.Json.String e.guard);
       ("guard_hash", Xmutil.Json.String e.guard_hash) ]
    @ opt "query_hash" e.query_hash []
    @ opt "classification" e.classification []
    @ [ ("outcome", Xmutil.Json.String (outcome_to_string e.outcome)) ]
    @ opt "error" e.error []
    @ [ ("wall_s", Xmutil.Json.Float e.wall_s);
        ("eval_s", Xmutil.Json.Float e.eval_s);
        ("render_s", Xmutil.Json.Float e.render_s);
        ("in_nodes", Xmutil.Json.Int e.in_nodes);
        ("out_nodes", Xmutil.Json.Int e.out_nodes) ]
    @ (match e.io with None -> [] | Some io -> [ ("io", io_to_json io) ])
    (* Written only when true, so records from cache-less builds and
       cache-less runs are byte-identical to the historical format. *)
    @ (if e.cached then [ ("cached", Xmutil.Json.Bool true) ] else [])
    (* Store generation, when the execution ran against a shredded store.
       Optional for the same reason as [cached]: records from before the
       field existed stay byte-identical. *)
    @ (match e.generation with
      | None -> []
      | Some g -> [ ("generation", Xmutil.Json.Int g) ]))

let entry_to_line e = Xmutil.Json.to_string ~pretty:false (entry_to_json e)

(* ---------- reading back ---------- *)

let entry_of_json j =
  let module J = Xmutil.Json in
  let f = J.fields ~what:"qlog entry" j in
  let io =
    match J.path j [ "io" ] with
    | Some (J.Obj _ as o) ->
        let f = J.fields ~what:"qlog entry" o in
        Some
          { bytes_read = J.int_field f "bytes_read";
            bytes_written = J.int_field f "bytes_written";
            blocks_read = J.int_field f "blocks_read";
            blocks_written = J.int_field f "blocks_written";
            read_ops = J.int_field f "read_ops";
            write_ops = J.int_field f "write_ops" }
    | _ -> None
  in
  let outcome =
    let s = J.string_field f "outcome" in
    match outcome_of_string s with
    | Some o -> o
    | None -> failwith (Printf.sprintf "qlog entry: unknown outcome %S" s)
  in
  {
    ts = float_of_int (J.int_field f "ts_ms") /. 1000.0;
    id = J.int_field f "id";
    trace_id = J.string_at j [ "trace_id" ];
    source = J.string_field f "source";
    doc = Option.value ~default:"" (J.string_at j [ "doc" ]);
    guard = J.string_field f "guard";
    guard_hash = J.string_field f "guard_hash";
    query_hash = J.string_at j [ "query_hash" ];
    classification = J.string_at j [ "classification" ];
    outcome;
    error = J.string_at j [ "error" ];
    wall_s = J.float_field f "wall_s";
    eval_s = J.float_field f "eval_s";
    render_s = J.float_field f "render_s";
    in_nodes = J.int_field f "in_nodes";
    out_nodes = J.int_field f "out_nodes";
    io;
    (* Absent in pre-cache logs: missing means uncached. *)
    cached = J.path j [ "cached" ] = Some (J.Bool true);
    (* Absent in pre-flight-recorder logs: missing means unknown. *)
    generation =
      (match J.path j [ "generation" ] with Some (J.Int g) -> Some g | _ -> None);
  }

(* ---------- the ring-to-disk writer ---------- *)

type t = {
  w_path : string;
  cap : int;
  max_bytes : int option; (* size-based rotation threshold *)
  mutable oc : out_channel; (* replaced on rotation *)
  owns_oc : bool; (* false for "-": stdout is flushed, never closed *)
  buf : Buffer.t;
  lock : Mutex.t;
  mutable written : int; (* bytes in the current file *)
  mutable closed : bool;
}

let default_cap = 64 * 1024

(* Path "-" streams records to stdout (containerized deployments ship
   telemetry via pipes); the channel is borrowed, so [close] only
   flushes it and rotation never applies. *)
let create ?(cap = default_cap) ?max_bytes path =
  let oc, owns_oc =
    if String.equal path "-" then (Stdlib.stdout, false)
    else (open_out_gen [ Open_append; Open_creat ] 0o644 path, true)
  in
  let written =
    (* Append mode positions at the end, so the channel length is the
       existing file size — rotation thresholds survive a daemon restart
       onto an already-large log. *)
    if owns_oc then try out_channel_length oc with Sys_error _ -> 0 else 0
  in
  { w_path = path; cap = max 1 cap;
    max_bytes = Option.map (fun m -> max 1 m) max_bytes; oc; owns_oc;
    buf = Buffer.create 4096; lock = Mutex.create (); written; closed = false }

let path t = t.w_path

let spill_unlocked t =
  if Buffer.length t.buf > 0 then begin
    t.written <- t.written + Buffer.length t.buf;
    Buffer.output_buffer t.oc t.buf;
    Buffer.clear t.buf;
    Stdlib.flush t.oc
  end

(* Size-based rotation, checked after every record (never from
   [flush]/[close], so shutdown cannot leave the primary log empty),
   against the bytes written plus the bytes buffered: a writer flushed
   after each record, as the serve daemon's is, never fills its buffer.
   Once the file would reach [max_bytes] the buffer is spilled, the file
   renamed to [path.1] — replacing any previous rotation — and a fresh
   file takes its place.  The lock is held, so no concurrent writer can
   land a record in the closed channel. *)
let maybe_rotate_unlocked t =
  match t.max_bytes with
  | Some m when t.owns_oc && t.written + Buffer.length t.buf >= m -> (
      spill_unlocked t;
      close_out_noerr t.oc;
      (try Sys.rename t.w_path (t.w_path ^ ".1") with Sys_error _ -> ());
      t.oc <- open_out_gen [ Open_append; Open_creat ] 0o644 t.w_path;
      t.written <- (try out_channel_length t.oc with Sys_error _ -> 0))
  | Some _ | None -> ()

let log t e =
  (* Serialize outside the lock: line building is the expensive part and
     needs no shared state. *)
  let line = entry_to_line e in
  Mutex.lock t.lock;
  if not t.closed then begin
    Buffer.add_string t.buf line;
    Buffer.add_char t.buf '\n';
    if Buffer.length t.buf >= t.cap then spill_unlocked t;
    maybe_rotate_unlocked t
  end;
  Mutex.unlock t.lock

let pending t =
  Mutex.lock t.lock;
  let n = Buffer.length t.buf in
  Mutex.unlock t.lock;
  n

let flush t =
  Mutex.lock t.lock;
  if not t.closed then spill_unlocked t;
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    spill_unlocked t;
    t.closed <- true;
    if t.owns_oc then close_out_noerr t.oc
    else (try Stdlib.flush t.oc with Sys_error _ -> ())
  end;
  Mutex.unlock t.lock
