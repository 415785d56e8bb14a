(* oneshot: [xmorph run] as a CLI user pays for it.  Each operation takes a
   serialized document of the seeded corpus and runs parse -> index ->
   shred -> compile -> render, so ingest and emit dominate while cache,
   HTTP and XQuery stay idle: the "predict no change" workload for
   serving-path work. *)

open Common
module Spans = Perfbench.Spans

type doc = { name : string; text : string; guards : string array }

(* Ten documents per generator, sizes at fixed log-spaced steps over one
   decade (~70 KB .. ~700 KB).  The seed picks the documents' contents and
   the order of operations, not their sizes, so every seed does the same
   amount of work. *)
let per_dataset = 10

let scaled_size lo hi i =
  lo *. ((hi /. lo) ** ((float_of_int i +. 0.5) /. float_of_int per_dataset))

let make name tree ds root =
  let guards =
    Array.of_list
      (List.map (Workloads.Shapes.guard ds) Workloads.Shapes.kinds @ [ "MUTATE " ^ root ])
  in
  { name; text = Xml.Printer.to_string tree; guards }

(* The [i]-th XMark document of the corpus of [seed]. *)
let xmark seed i =
  let factor = scaled_size 0.0022 0.022 i in
  make (Printf.sprintf "xmark-%.4f" factor)
    (Workloads.Xmark.generate ~seed:(seed + i) ~factor ())
    Workloads.Shapes.Xmark_data "site"

let corpus seed =
  let scaled = scaled_size in
  List.concat
    [ List.init per_dataset (xmark seed);
      List.init per_dataset (fun i ->
          let entries = int_of_float (scaled 200. 2000. i) in
          make (Printf.sprintf "dblp-%d" entries)
            (Workloads.Dblp.generate ~seed:(seed + i) ~entries ())
            Workloads.Shapes.Dblp_data "dblp");
      List.init per_dataset (fun i ->
          let datasets = int_of_float (scaled 25. 250. i) in
          make (Printf.sprintf "nasa-%d" datasets)
            (Workloads.Nasa.generate ~seed:(seed + i) ~datasets ())
            Workloads.Shapes.Nasa_data "datasets") ]
  |> Array.of_list

(* The traced run times guard parsing, the shape semantics and the loss
   analysis as children of one compile span, by calling the public parts
   [Interp.compile ~enforce:false] is made of, and renders the shape they
   give.  It builds no [Interp.t], so a change to that record cannot break
   the benchmark; a traced plan that renders other bytes than the CLI path
   fails the correctness check, which both runs make. *)
let compile_traced guide source =
  Spans.with_span "core.compile" @@ fun () ->
  let ast = Spans.with_span "core.guard_parse" (fun () -> Xmorph.Parse.guard source) in
  let sem =
    Spans.with_span "core.semantics" (fun () ->
        Xmorph.Semantics.eval guide (Xmorph.Algebra.of_ast ast))
  in
  Spans.with_span "core.loss" (fun () ->
      ignore (Xmorph.Loss.analyze ~warnings:sem.warnings guide sem.shape));
  sem.shape

(* One operation; returns the store and target shape (for the correctness
   check and the join pass) and the render statistics.  Untraced it is the
   CLI's path, [Interp.compile] then [Interp.render_to_buffer]. *)
let run_op ~traced text guard buf =
  Spans.with_span "oneshot.run" @@ fun () ->
  let tree = Spans.with_span "xml.parse" (fun () -> Xml.Parser.parse text) in
  let doc = Spans.with_span "xml.index" (fun () -> Xml.Doc.of_tree tree) in
  let store = Spans.with_span "store.shred" (fun () -> Store.Shredded.shred doc) in
  let guide = Store.Shredded.guide store in
  let shape, render =
    if traced then
      let shape = compile_traced guide guard in
      (shape, fun () -> Xmorph.Render.to_buffer store shape buf)
    else
      let compiled = Xmorph.Interp.compile ~enforce:false guide guard in
      (compiled.shape, fun () -> Xmorph.Interp.render_to_buffer store compiled buf)
  in
  let stats = Spans.with_span "core.render" render in
  (store, shape, stats)

(* The bytes [xmorph run --compact] would print for the same pair, from
   the shared execution path: the render buffer, newline-terminated and
   wrapped in <result> when the target shape is a forest. *)
let matches_exec store guard rendered =
  match
    Xmserve.Exec.execute ~source:"perfbench" ~enforce:false ~compact:true store guard
  with
  | Xmserve.Exec.Rendered { body; _ } ->
      body = rendered ^ "\n" || body = "<result>" ^ rendered ^ "</result>\n"
  | Xmserve.Exec.Query_result _ | Xmserve.Exec.Failed _ -> false

(* Peak memory of one [xmorph run] process: a fresh copy of this runner
   performs the identity MUTATE on the largest XMark document of seed 1's
   corpus, the same document for every seed, and reports its own VmHWM.
   Measured in a fresh process because the runner's own high-water mark
   depends on where in the shuffled schedule the collector happened to
   run; on one fixed document because one process's high-water mark moves
   in steps of the heap's growth, and the largest document of each seed
   fell on one step or the next (20 or 24 MB). *)
let rss_probe path guard =
  let text = In_channel.with_open_bin path In_channel.input_all in
  ignore (run_op ~traced:false text guard (Buffer.create 65536));
  Printf.printf "%.17g\n" (peak_rss_mb "self")

let fresh_process_rss cfg (d : doc) =
  let path = Filename.concat cfg.dir "largest.xml" in
  Out_channel.with_open_bin path (fun oc -> output_string oc d.text);
  let guard = d.guards.(Array.length d.guards - 1) in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--rss-probe"; path; "--guard"; guard |]
  in
  let v = float_of_string (String.trim (In_channel.input_all ic)) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> v
  | _ -> failwith "rss probe failed"

(* About 20 operations a second, with the kernel samples, on one core of
   the reference machine; 20 s asks for 400, rounded up to three whole
   cycles (450). *)
let ops_per_second = 20

(* The kernel is sampled before every [sample_every]-th operation. *)
let sample_every = 3

let run cfg =
  (* Set-up is corpus generation. *)
  ignore (corpus cfg.seed);
  let setups = repeat_setup (setup_before - 1) (fun () -> corpus cfg.seed) in
  let last, docs = time_setup (fun () -> corpus cfg.seed) in
  let guards = Array.length docs.(0).guards in
  let sched =
    Perfbench.Sched.oneshot ~seed:cfg.seed ~docs:(Array.length docs) ~guards
      ~ops:(max 200 (cfg.seconds * ops_per_second))
  in
  let cycle = Array.length docs * guards in
  let input_mb =
    Array.fold_left
      (fun acc (o : Perfbench.Sched.oneshot_op) ->
        acc +. (float_of_int (String.length docs.(o.doc).text) /. 1e6))
      0. sched
  in
  (* Warm-up: one operation per generator on its smallest document. *)
  List.iter
    (fun d -> ignore (run_op ~traced:false docs.(d).text docs.(d).guards.(0) (Buffer.create 1024)))
    [ 0; per_dataset; 2 * per_dataset ];
  let failed = ref 0 in
  (* One pass over the schedule; the first cycle (every pair once) is also
     checked against [Exec.execute], outside the timed window.  Returns
     each operation's raw (start, duration). *)
  let pass ~traced =
    Gc.compact ();
    let lat = Array.make (Array.length sched) (0., 0.) in
    let elems = ref 0 and bytes = ref 0 and blocks_r = ref 0 and blocks_w = ref 0 in
    Array.iteri
      (fun i (o : Perfbench.Sched.oneshot_op) ->
        let d = docs.(o.doc) in
        let guard = d.guards.(o.guard) in
        let buf = Buffer.create 65536 in
        if i mod sample_every = 0 then sample_host ();
        (* Each [xmorph run] starts with an empty heap; finishing the
           previous operation's collection outside the timed window keeps
           its garbage off this one. *)
        Gc.major ();
        let op () =
          let t, (store, shape, stats) = time_at (fun () -> run_op ~traced d.text guard buf) in
          lat.(i) <- t;
          let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
          elems := !elems + stats.Xmorph.Render.elements;
          bytes := !bytes + stats.Xmorph.Render.bytes;
          blocks_r := !blocks_r + io.blocks_read;
          blocks_w := !blocks_w + io.blocks_written;
          if traced then
            ignore
              (Spans.with_span "core.join" (fun () ->
                   Xmorph.Render.explain store shape));
          if i < cycle
             && not (matches_exec store guard (Buffer.contents buf))
          then begin
            incr failed;
            Printf.printf "check failed: %s on %s\n" guard d.name
          end
        in
        Spans.with_op (string_of_int i) op)
      sched;
    sample_host ();
    (lat, [ ("core.render.elems", float_of_int !elems);
                  ("core.render.bytes", float_of_int !bytes);
                  ("store.io.blocks_read", float_of_int !blocks_r);
                  ("store.io.blocks_written", float_of_int !blocks_w) ])
  in
  let raw, _ = pass ~traced:false in
  (* The untraced run's later set-ups; a traced run reports no set-up. *)
  let setups =
    if cfg.trace then [] else (last :: setups) @ repeat_setup setup_after (fun () -> corpus cfg.seed)
  in
  let lat = Array.to_list (Array.map scaled raw) in
  let sorted = Perfbench.Stats.sorted lat in
  let measured = Perfbench.Stats.sum lat in
  let mutate = List.filteri (fun i _ -> sched.(i).Perfbench.Sched.guard = guards - 1) lat in
  let raw_sorted = Perfbench.Stats.sorted (Array.to_list (Array.map snd raw)) in
  let info =
    (if setups = [] then []
     else [ ("setup samples (scaled s)",
             String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" (scaled s)) setups)) ])
    @ [ ("schedule",
       Printf.sprintf "%d ops over %d documents x %d guards; identity MUTATE share %.3f"
         (Array.length sched) (Array.length docs) guards (1. /. float_of_int guards));
      ("host kernel", host_line ());
      ("raw op p50 / p95", Printf.sprintf "%.3f / %.3f ms"
         (ms (Perfbench.Stats.median raw_sorted)) (ms (pct raw_sorted 95.)));
      ("oneshot_p50_ms (op_p50_ms)", Printf.sprintf "%.3f ms" (ms (Perfbench.Stats.median sorted)));
      ("oneshot_p95_ms (op_p95_ms)", Printf.sprintf "%.3f ms" (ms (pct sorted 95.)));
      ("oneshot_mb_per_s", Printf.sprintf "%.3f MB/s (%.1f MB input)" (input_mb /. measured) input_mb) ]
  in
  let metrics =
    if not cfg.trace then
      [ ("setup_s", setup_s setups);
        ("rss_mb", fresh_process_rss cfg (xmark 1 (per_dataset - 1)));
        ("op_p50_ms", ms (Perfbench.Stats.median sorted));
        ("op_p95_ms", ms (pct sorted 95.));
        ("aux_p50_ms", median_ms mutate);
        ("ops_per_s", float_of_int (Array.length sched) /. measured) ]
    else begin
      Spans.enable ();
      let traw, counts = pass ~traced:true in
      write_spans cfg;
      counts
      @ layer_medians (Spans.all ())
      @ [ ("trace.overhead_ms",
           median_ms (Array.to_list (Array.map scaled traw)) -. ms (Perfbench.Stats.median sorted)) ]
    end
  in
  { attempted = Array.length sched; failed = !failed; metrics; info }
