(* What every workload shares: the clock, the run's metric table, and the
   result line perfbench/run.py relays. *)

let now = Unix.gettimeofday

let ms s = s *. 1000.

(* The host's speed through the run (perfbench/src/calib.mli).  Every
   workload samples the kernel between its measured operations, keeps each
   operation's raw start and duration, and scales them once the run is
   over, when the samples on both sides of every operation are in. *)
let calib = Perfbench.Calib.create ()

let sample_host () = Perfbench.Calib.sample calib

(* A raw (start, duration) pair scaled to the reference host speed. *)
let scaled (start, dt) = Perfbench.Calib.scaled calib ~start dt

(* Time [f]: its raw (start, duration), for [scaled], and its result. *)
let time_at f =
  let t0 = now () in
  let r = f () in
  ((t0, now () -. t0), r)

(* Set-up runs once untimed, so that code, page cache and heap are warm
   as for every other timed figure (the first set-up of a process is the
   slowest, and otherwise the median can fall between cold and warm
   samples).  It is then timed [setup_before] times before the measured
   operations and [setup_after] times after them, each time on a
   compacted heap after two kernel samples; [setup_s] is the median of the
   scaled samples. *)
let setup_before = 5
let setup_after = 4

let time_setup f =
  sample_host ();
  sample_host ();
  Gc.compact ();
  time_at f

let repeat_setup n f = List.init n (fun _ -> fst (time_setup f))

(* The kernel samples' spread, for the lines printed before the result. *)
let host_line () =
  let k = Perfbench.Calib.durations calib in
  let q i = ms k.(i * (Array.length k - 1) / 4) in
  Printf.sprintf "%d samples, q1 %.3f median %.3f q3 %.3f ms (scale 1 at %.1f ms)"
    (Array.length k) (q 1) (q 2) (q 3) (ms Perfbench.Calib.ref_s)

let setup_s setups = Perfbench.Stats.median (Perfbench.Stats.sorted (List.map scaled setups))

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  dir : string;  (** scratch directory for generated files *)
  spans_dir : string;  (** where a traced run writes its spans *)
  xmorph : string;  (** the repository's own CLI, for the daemon *)
}

(* The end-to-end metrics every workload reports, with units.  What "op"
   and "aux" mean per workload is in perfbench/README.md. *)
let end_to_end =
  [ ("setup_s", "s"); ("rss_mb", "MB"); ("op_p50_ms", "ms");
    ("op_p95_ms", "ms"); ("aux_p50_ms", "ms"); ("ops_per_s", "1/s") ]

(* The per-layer metrics of the traced run.  A layer a workload never
   calls reports 0 (zero calls, zero time). *)
let per_layer =
  [ ("xml.parse.self_ms", "ms"); ("xml.index.self_ms", "ms");
    ("store.shred.self_ms", "ms"); ("core.compile.self_ms", "ms");
    ("core.guard_parse.self_ms", "ms"); ("core.semantics.self_ms", "ms");
    ("core.loss.self_ms", "ms"); ("core.join.self_ms", "ms");
    ("core.render.self_ms", "ms"); ("core.render_tree.self_ms", "ms");
    ("xquery.parse.self_ms", "ms"); ("xquery.eval.self_ms", "ms");
    ("guarded.logical.self_ms", "ms"); ("store.update.self_ms", "ms");
    ("serve.exec.hit_ms", "ms"); ("serve.exec.miss_ms", "ms");
    ("serve.cpu_ms_per_req", "ms"); ("cache.result.hit_ratio", "ratio");
    ("cache.result.evictions", "count"); ("cache.plan.hit_ratio", "ratio");
    ("core.render.elems", "count"); ("core.render.bytes", "count");
    ("store.io.blocks_read", "count"); ("store.io.blocks_written", "count");
    ("guarded.logical.blocks_read", "count");
    ("xquery.result.items", "count"); ("trace.overhead_ms", "ms") ]

(* Percentile with the >= 10-beyond rule; a schedule too short to admit
   it is a benchmark bug, not a measurement. *)
let pct sorted p =
  match Perfbench.Stats.percentile sorted p with
  | Some v -> v
  | None ->
      failwith
        (Printf.sprintf "p%g needs %d samples beyond it; only %d samples"
           p Perfbench.Stats.min_beyond (Array.length sorted))

let median_ms xs = ms (Perfbench.Stats.median (Perfbench.Stats.sorted xs))

(* A memory figure of a process from /proc/PID/status, in MB: [field] is
   "VmHWM:" (peak) or "VmRSS:" (now). *)
let status_mb field pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let n = String.length field in
  let rec loop () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = field ->
        Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> failwith ("no " ^ field ^ " in " ^ path)
  in
  loop ()

let peak_rss_mb = status_mb "VmHWM:"

(* [<layer>.self_ms]: the median over operations of the layer's self time
   within the operation, from the recorded spans. *)
let layer_medians spans =
  let by_op = Perfbench.Spans.self_by_op spans in
  Hashtbl.fold (fun name v acc -> (name ^ ".self_ms", median_ms v) :: acc) by_op []

(* The spans of a traced run, written once at the end. *)
let write_spans cfg =
  let path =
    Filename.concat cfg.spans_dir
      (Printf.sprintf "spans-%s-%d.json" cfg.workload cfg.seed)
  in
  let oc = open_out path in
  output_string oc
    (Xmutil.Json.to_string ~pretty:false
       (Perfbench.Spans.to_json (Perfbench.Spans.all ())));
  close_out oc;
  Printf.printf "spans: %s\n" path

let num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else failwith "non-finite metric"

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * string) list;  (** printed before the result line *)
}

(* One JSON line: the metrics of [table] in order; names [table] lists but
   [r] lacks are 0 only for the per-layer table (a layer not called). *)
let emit ~table r =
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) r.info;
  let metric (name, unit) =
    let v =
      match List.assoc_opt name r.metrics with
      | Some v -> v
      | None when table == per_layer -> 0.
      | None -> failwith ("missing end-to-end metric " ^ name)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric table))
