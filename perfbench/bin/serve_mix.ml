(* serve-mix: the repository's own [xmorph serve] daemon over preloaded
   XMark and DBLP stores, with its production sinks on (result cache,
   query log, an SLO objective, the flight recorder), driven by a closed
   loop of one connection over a fixed seeded schedule of POST /query
   reads and POST /update writes.  The only workload where HTTP framing,
   per-request telemetry, Xmcache and the update path run; writes beside
   reads expose a read-path gain that costs updates, and the reverse. *)

open Common
module Spans = Perfbench.Spans
module Sched = Perfbench.Sched

let xmark_factor = 0.02
let dblp_entries = 2000
let cache_mb = 2

type entry = { doc : string; guard : string; query : string option }

(* The hot set: six entries whose bodies together (under 0.5 MB) fit the
   2 MiB result tier, two of them guarded queries. *)
let hot =
  let g ds k = Workloads.Shapes.guard ds k in
  let open Workloads.Shapes in
  [| { doc = "xmark.xml"; guard = g Xmark_data Deep_small; query = None };
     { doc = "dblp.xml"; guard = g Dblp_data Deep_small; query = None };
     { doc = "xmark.xml"; guard = g Xmark_data Bushy_small; query = None };
     { doc = "dblp.xml"; guard = "MORPH author [ title [ year ] ]";
       query = Some "count(/result/author)" };
     { doc = "dblp.xml"; guard = g Dblp_data Bushy_small; query = None };
     { doc = "xmark.xml"; guard = g Xmark_data Bushy_small;
       query = Some "/result/person[position() <= 25]/person.name" } |]

(* The tail: for every element type with element children, a MORPH of the
   type over its first one, two and three children.  Their costs spread
   continuously from a fraction of a millisecond to about ten, and their
   bodies total more than the result tier holds. *)
let tail stores =
  let of_store (doc, store) =
    let guide = Store.Shredded.guide store in
    let tt = Xml.Dataguide.types guide in
    let q = Xml.Type_table.qname tt in
    List.concat_map
      (fun ty ->
        let kids =
          List.filter
            (fun c -> not (Xml.Type_table.is_attribute tt c))
            (Xml.Dataguide.children guide ty)
        in
        List.filteri (fun k _ -> k < 3) kids
        |> List.mapi (fun k _ ->
               { doc;
                 guard =
                   Printf.sprintf "MORPH %s [ %s ]" (q ty)
                     (String.concat " " (List.map q (List.filteri (fun i _ -> i <= k) kids)));
                 query = None }))
      (Xml.Dataguide.all_types guide)
  in
  Array.of_list (List.concat_map of_store stores)

(* The schedule is cut into five identically apportioned windows, so
   every part of the run does the same mix of work. *)
let windows = 5

(* The load pauses every [batch] requests for one kernel sample. *)
let batch = 100

(* The write and hot shares are assumptions, not measured traffic;
   perfbench/README.md says what each is chosen to make the benchmark
   measure. *)
let spec ~requests ~tail =
  { Sched.requests; write_share = 0.04; hot_share = 0.85; hot = Array.length hot; tail;
    windows }

(* ---------- HTTP ---------- *)

let encode s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' -> String.make 1 c
         | c -> Printf.sprintf "%%%02X" (Char.code c))
       (List.init (String.length s) (String.get s)))

let url port path = Printf.sprintf "http://127.0.0.1:%d%s" port path

let query_url port e =
  url port
    (Printf.sprintf "/query?doc=%s&force=1%s" e.doc
       (match e.query with None -> "" | Some q -> "&query=" ^ encode q))

let get port path =
  match Xmserve.Http.request_url ~meth:"GET" (url port path) with
  | Ok (200, _, body) -> body
  | Ok (s, _, _) -> failwith (Printf.sprintf "GET %s: status %d" path s)
  | Error m -> failwith (Printf.sprintf "GET %s: %s" path m)

(* ---------- the daemon ---------- *)

type daemon = { pid : int; port : int }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* Start the daemon and wait until /healthz answers 200; a daemon that
   never gets there is stopped before the error propagates. *)
let spawn cfg files =
  let port_file = Filename.concat cfg.dir "serve.port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat cfg.dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| cfg.xmorph; "serve"; "--port"; "0"; "--port-file"; port_file;
       "--workers"; "4"; "--cache-mb"; string_of_int cache_mb;
       "--qlog"; Filename.concat cfg.dir "serve.qlog.jsonl";
       "--slo-p95-ms"; "5000";
       "--incident-dir"; Filename.concat cfg.dir "incidents" |]
  in
  let pid =
    Unix.create_process cfg.xmorph (Array.append args (Array.of_list files))
      Unix.stdin log log
  in
  Unix.close log;
  let deadline = now () +. 60. in
  let rec poll what f =
    match f () with
    | Some v -> v
    | None ->
        if now () > deadline then failwith ("daemon never " ^ what);
        Unix.sleepf 0.002;
        poll what f
  in
  match
    let port =
      poll "wrote its port" (fun () ->
          match String.trim (read_file port_file) with
          | "" | (exception Sys_error _) -> None
          | p -> Some (int_of_string p))
    in
    poll "became healthy" (fun () ->
        match Xmserve.Http.request_url ~meth:"GET" (url port "/healthz") with
        | Ok (200, _, _) -> Some ()
        | _ -> None);
    port
  with
  | port -> { pid; port }
  | exception e ->
      stop { pid; port = 0 };
      raise e

(* utime + stime of a process, in clock ticks (fields 14 and 15 of
   /proc/PID/stat, counted after the command name's closing paren). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  int_of_string f.(11) + int_of_string f.(12)

let clock_ticks_per_s () =
  let ic = Unix.open_process_in "getconf CLK_TCK" in
  let v = try int_of_string (String.trim (input_line ic)) with _ -> 100 in
  ignore (Unix.close_process_in ic);
  v

(* ---------- the run ---------- *)

(* Seeded write targets: distinct text-bearing nodes, alternating stores. *)
let write_targets seed stores n =
  let rng = Xmutil.Prng.create (seed + 7919) in
  let candidates =
    Array.of_list
      (List.map
         (fun (doc, store) ->
           let ids =
             List.filter
               (fun id -> (Store.Shredded.node store id).value <> "")
               (List.init (Store.Shredded.node_count store) Fun.id)
             |> Array.of_list
           in
           Xmutil.Prng.shuffle rng ids;
           (doc, ids))
         stores)
  in
  Array.init n (fun i ->
      let doc, ids = candidates.(i mod Array.length candidates) in
      (doc, ids.(i / Array.length candidates), Printf.sprintf "perfbench update %d" i))

let load_stores files =
  Spans.with_op "setup" @@ fun () ->
  List.map
    (fun path ->
      let tree = Spans.with_span "xml.parse" (fun () -> Xml.Parser.parse (read_file path)) in
      let doc = Spans.with_span "xml.index" (fun () -> Xml.Doc.of_tree tree) in
      (Filename.basename path,
       Spans.with_span "store.shred" (fun () -> Store.Shredded.shred doc)))
    files

let body_of = function
  | Xmserve.Exec.Rendered { body; _ } | Xmserve.Exec.Query_result { body; _ } -> Some body
  | Xmserve.Exec.Failed _ -> None

type sample = { op : Sched.serve_op; start : float; stop : float; ok : bool }

(* One connection in a closed loop: each request is sent as soon as the
   previous one completes.  The load pauses every [batch] requests for a
   kernel sample ([on_batch]).  A single daemon domain serves one request at a time, so
   with a second connection every latency would include a varying share of
   the other connection's request, and each percentile would fall between
   queued and unqueued requests. *)
let drive ~traced ~on_batch port pool targets sched =
  Array.mapi
    (fun i op ->
      if i mod batch = 0 then on_batch ();
      let meth, target, body =
        match op with
        | Sched.Read g -> ("POST", query_url port pool.(g), pool.(g).guard)
        | Sched.Write w ->
            let doc, node, value = targets.(w) in
            ("POST", url port (Printf.sprintf "/update?doc=%s&node=%d" doc node), value)
      in
      let t0 = now () in
      let r = Xmserve.Http.request_url ~body ~meth target in
      let t1 = now () in
      let ok = match r with Ok (200, _, _) -> true | _ -> false in
      (if traced then
         let op_id =
           match r with
           | Ok (_, headers, _) ->
               Option.value ~default:(string_of_int i)
                 (List.assoc_opt "x-xmorph-trace-id" headers)
           | Error _ -> string_of_int i
         in
         let name = match op with Sched.Read _ -> "serve.query" | Sched.Write _ -> "serve.update" in
         Spans.record ~op:op_id ~name ~start:t0 ~stop:t1);
      if i = Array.length sched - 1 then sample_host ();
      { op; start = t0; stop = t1; ok })
    sched

(* Replay the schedule in process through [Exec.execute] with the cache at
   the daemon's budget, classing each read as a result-tier hit or miss,
   and time [update_value] for the writes. *)
let replay stores pool targets sched =
  Xmcache.enable ~budget_bytes:(cache_mb * 1024 * 1024);
  let cells = List.map (fun (d, s) -> (d, ref s)) stores in
  let hits () = match Xmcache.stats () with Some s -> s.result_hits | None -> 0 in
  Array.iteri
    (fun i op ->
      let op_id = "replay-" ^ string_of_int i in
      match op with
      | Sched.Read g ->
          let e = pool.(g) in
          let h0 = hits () in
          let t0 = now () in
          ignore
            (Xmserve.Exec.execute ~source:"perfbench" ~doc:e.doc ~enforce:false
               ?query:e.query !(List.assoc e.doc cells) e.guard);
          let t1 = now () in
          let name = if hits () > h0 then "serve.exec.hit" else "serve.exec.miss" in
          Spans.record ~op:op_id ~name ~start:t0 ~stop:t1
      | Sched.Write w ->
          let doc, node, value = targets.(w) in
          let cell = List.assoc doc cells in
          let t0 = now () in
          cell := Store.Shredded.update_value !cell node value;
          Spans.record ~op:op_id ~name:"store.update" ~start:t0 ~stop:(now ()))
    sched;
  Xmcache.disable ();
  let io =
    List.map (fun (_, s) -> Store.Io_stats.snapshot (Store.Shredded.stats s)) stores
  in
  [ ("store.io.blocks_read", float_of_int (List.fold_left (fun a (s : Store.Io_stats.snapshot) -> a + s.blocks_read) 0 io));
    ("store.io.blocks_written", float_of_int (List.fold_left (fun a (s : Store.Io_stats.snapshot) -> a + s.blocks_written) 0 io)) ]

(* Every pool entry fetched once after the run must equal an in-process
   execution on reference stores that applied the same writes. *)
let final_check port stores pool targets =
  let refs =
    Array.fold_left
      (fun refs (doc, node, value) ->
        List.map
          (fun (d, s) -> if d = doc then (d, Store.Shredded.update_value s node value) else (d, s))
          refs)
      stores targets
  in
  Array.fold_left
    (fun bad e ->
      let served =
        match Xmserve.Http.request_url ~body:e.guard ~meth:"POST" (query_url port e) with
        | Ok (200, _, body) -> Some body
        | _ -> None
      in
      let expected =
        body_of
          (Xmserve.Exec.execute ~source:"perfbench" ~doc:e.doc ~enforce:false
             ?query:e.query (List.assoc e.doc refs) e.guard)
      in
      if served <> None && served = expected then bad
      else begin
        Printf.printf "check failed: %s%s on %s\n" e.guard
          (match e.query with None -> "" | Some q -> " ?query=" ^ q) e.doc;
        bad + 1
      end)
    0 pool

let cache_counts port =
  let j = Xmutil.Json.of_string (get port "/debug/cache") in
  let field path =
    List.fold_left
      (fun j k -> match j with Xmutil.Json.Obj kv -> List.assoc k kv | _ -> raise Not_found)
      j path
  in
  let int path = match field path with Xmutil.Json.Int n -> n | _ -> 0 in
  List.map (fun p -> (String.concat "." p, int p))
    [ [ "result"; "hits" ]; [ "result"; "misses" ]; [ "result"; "evictions" ];
      [ "plan"; "hits" ]; [ "plan"; "misses" ] ]

(* About 600 requests a second on one core of the reference machine. *)
let requests_per_second = 600

let run cfg =
  let xmark = Filename.concat cfg.dir "xmark.xml" and dblp = Filename.concat cfg.dir "dblp.xml" in
  let write path tree = Out_channel.with_open_bin path (fun oc -> output_string oc (Xml.Printer.to_string tree)) in
  write xmark (Workloads.Xmark.generate ~seed:cfg.seed ~factor:xmark_factor ());
  write dblp (Workloads.Dblp.generate ~seed:cfg.seed ~entries:dblp_entries ());
  let files = [ xmark; dblp ] in
  let stores = load_stores files in
  let pool = Array.append hot (tail stores) in
  (* A traced run drives the schedule twice (untraced, then traced) and
     replays it in process, so it takes half as many requests. *)
  let requests =
    max 5000 (cfg.seconds * requests_per_second / (if cfg.trace then 2 else 1))
  in
  let sched = Sched.serve ~seed:cfg.seed (spec ~requests ~tail:(Array.length pool - Array.length hot)) in
  let writes = Array.fold_left (fun n -> function Sched.Write _ -> n + 1 | _ -> n) 0 sched in
  let targets = write_targets cfg.seed stores writes in
  (* Set-up: daemon spawn until /healthz answers, store load included.
     The first spawn is untimed (see [Common.setup_before]).  Every spawn
     is stopped but the last one before the run, which serves it. *)
  let spawn_stop n =
    List.init n (fun _ ->
        let dt, d = time_setup (fun () -> spawn cfg files) in
        stop d;
        dt)
  in
  stop (spawn cfg files);
  let setups = spawn_stop (setup_before - 1) in
  let last, d = time_setup (fun () -> spawn cfg files) in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  (* Warm-up: every pool entry once (plans compiled, code paged in). *)
  Array.iter (fun e -> ignore (Xmserve.Http.request_url ~body:e.guard ~meth:"POST" (query_url d.port e))) pool;
  Gc.compact ();
  let cache0 = cache_counts d.port and cpu0 = cpu_ticks d.pid in
  (* The daemon's resident set is sampled with every kernel sample of the
     measured drive; its high-water mark swings with where the collector
     happens to run while writes copy whole stores, the median does not. *)
  let rss = ref [] in
  let on_batch () =
    sample_host ();
    rss := status_mb "VmRSS:" (string_of_int d.pid) :: !rss
  in
  let samples = drive ~traced:false ~on_batch d.port pool targets sched in
  let cpu1 = cpu_ticks d.pid and cache1 = cache_counts d.port in
  (* The traced run drives the same schedule a second time with client
     spans on; its writes repeat the same values, so the final state the
     check expects is unchanged. *)
  let traced_samples =
    if cfg.trace then begin
      Spans.enable ();
      Some (drive ~traced:true ~on_batch:sample_host d.port pool targets sched)
    end
    else None
  in
  let samples_all = Array.append samples (Option.value ~default:[||] traced_samples) in
  let transport_failures = Array.fold_left (fun n s -> if s.ok then n else n + 1) 0 samples_all in
  let check_failures = final_check d.port stores pool targets in
  let peak = peak_rss_mb (string_of_int d.pid) in
  (* The untraced run's later set-ups; a traced run reports no set-up. *)
  let setups =
    if cfg.trace then [] else (last :: setups) @ spawn_stop setup_after
  in
  (* Every request's latency scaled to the reference host speed; reads
     and writes are two classes, each with its own percentiles. *)
  let dt s = scaled (s.start, s.stop -. s.start) in
  let times keep a = List.filter_map (fun s -> if keep s.op then Some (dt s) else None) (Array.to_list a) in
  let is_read = function Sched.Read _ -> true | Sched.Write _ -> false in
  let reads = times is_read samples in
  let sorted = Perfbench.Stats.sorted reads in
  let write_times = times (fun op -> not (is_read op)) samples in
  (* Throughput over the time the load ran, batch by batch, so the pauses
     for kernel samples stay off the clock. *)
  let busy =
    List.init ((requests + batch - 1) / batch) (fun b ->
        let bs = Array.sub samples (b * batch) (min batch (requests - (b * batch))) in
        let first = Array.fold_left (fun m s -> Float.min m s.start) infinity bs in
        let last = Array.fold_left (fun m s -> Float.max m s.stop) neg_infinity bs in
        scaled (first, last -. first))
  in
  let rps = float_of_int requests /. Perfbench.Stats.sum busy in
  let raw_reads =
    Perfbench.Stats.sorted
      (List.filter_map (fun s -> if is_read s.op then Some (s.stop -. s.start) else None)
         (Array.to_list samples))
  in
  let hot_reads = Array.fold_left (fun n -> function Sched.Read g when g < Array.length hot -> n + 1 | _ -> n) 0 sched in
  let cpu_per_req =
    1000. *. float_of_int (cpu1 - cpu0) /. float_of_int (clock_ticks_per_s ()) /. float_of_int requests
  in
  let info =
    (if setups = [] then []
     else [ ("setup samples (scaled s)",
             String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" (scaled s)) setups)) ])
    @ [ ("schedule",
       Printf.sprintf "%d requests in %d windows over one connection: %d writes (%.3f), %d reads (hot %.3f of reads over %d entries, tail %d guards), %d pool entries with ?query="
         requests windows writes (float_of_int writes /. float_of_int requests)
         (List.length reads) (float_of_int hot_reads /. float_of_int (List.length reads))
         (Array.length hot) (Array.length pool - Array.length hot)
         (Array.fold_left (fun n e -> if e.query <> None then n + 1 else n) 0 pool));
      ("host kernel", host_line ());
      ("daemon VmHWM", Printf.sprintf "%.2f MB" peak);
      ("raw read p50 / p95", Printf.sprintf "%.3f / %.3f ms"
         (ms (Perfbench.Stats.median raw_reads)) (ms (pct raw_reads 95.)));
      ("serve_rps (ops_per_s)", Printf.sprintf "%.2f 1/s" rps);
      ("serve_p50_ms (op_p50_ms)", Printf.sprintf "%.3f ms" (ms (Perfbench.Stats.median sorted)));
      ("serve_p95_ms (op_p95_ms)", Printf.sprintf "%.3f ms" (ms (pct sorted 95.)));
      ("serve_p99_ms (not bounded)",
       match Perfbench.Stats.percentile sorted 99. with
       | Some v -> Printf.sprintf "%.3f ms" (ms v)
       | None -> "n/a");
      ("update_p50_ms (aux_p50_ms)", Printf.sprintf "%.3f ms" (median_ms write_times));
      ("daemon cpu_ms_per_req", Printf.sprintf "%.4f" cpu_per_req) ]
  in
  let metrics =
    if not cfg.trace then
      [ ("setup_s", setup_s setups);
        ("rss_mb", Perfbench.Stats.median (Perfbench.Stats.sorted !rss));
        ("op_p50_ms", ms (Perfbench.Stats.median sorted));
        ("op_p95_ms", ms (pct sorted 95.));
        ("aux_p50_ms", median_ms write_times);
        ("ops_per_s", rps) ]
    else begin
      let delta k = float_of_int (List.assoc k cache1 - List.assoc k cache0) in
      let ratio h m = let h = delta h and m = delta m in if h +. m = 0. then 0. else h /. (h +. m) in
      let io = replay (load_stores files) pool targets sched in
      let replayed = Spans.all () in
      write_spans cfg;
      let layers = layer_medians replayed in
      io
      @ [ ("serve.cpu_ms_per_req", cpu_per_req);
          ("cache.result.hit_ratio", ratio "result.hits" "result.misses");
          ("cache.result.evictions", delta "result.evictions");
          ("cache.plan.hit_ratio", ratio "plan.hits" "plan.misses");
          ("serve.exec.hit_ms", List.assoc "serve.exec.hit.self_ms" layers);
          ("serve.exec.miss_ms", List.assoc "serve.exec.miss.self_ms" layers) ]
      @ layers
      @ [ ("trace.overhead_ms",
           median_ms (times is_read (Option.get traced_samples)) -. ms (Perfbench.Stats.median sorted)) ]
    end
  in
  { attempted = Array.length samples_all + Array.length pool; failed = transport_failures + check_failures; metrics; info }
