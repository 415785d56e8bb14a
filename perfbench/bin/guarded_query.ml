(* guarded-query: (guard, query) pairs over one preloaded DBLP store,
   answered by architecture 1 (render the whole reshaped document, then
   XQuery) and architecture 3 (the in-situ logical evaluator over
   Render.Nav).  XQuery evaluation and per-instance closest joins dominate
   here and nowhere else.  Selectivity is a log-uniform [position() <=]
   bound, continuous, so no percentile sits on a boundary between a cheap
   and an expensive query class. *)

open Common
module Spans = Perfbench.Spans

let entries = 3000

(* Each guard with its result root and two query templates over the
   reshaped document: a positional slice, and the same slice filtered by a
   value predicate. *)
let guards =
  [| ("MORPH author [ title [ year ] ]", "author",
      [| "/result/author[position() <= %d]/title";
         "/result/author[position() <= %d][title/year >= 2000]/title/year/text()" |]);
     ("MORPH article [ title year pages ]", "article",
      [| "/result/article[position() <= %d]/pages";
         "/result/article[position() <= %d][year >= 2000]/title/text()" |]);
     ("MORPH inproceedings [ booktitle title year ]", "inproceedings",
      [| "/result/inproceedings[position() <= %d]/title";
         "/result/inproceedings[position() <= %d][year < 1995]/booktitle/text()" |]) |]

let query_text (p : Perfbench.Sched.pair) =
  let _, _, templates = guards.(p.pguard) in
  Printf.sprintf (Scanf.format_from_string templates.(p.template) "%d") p.bound

type prepared = {
  store : Store.Shredded.t;
  compiled : Xmorph.Interp.t array;
  logical : Guarded.Logical.t array;
}

(* Set-up: index, shred, compile every guard, wrap for in-situ queries. *)
let prepare tree =
  Spans.with_op "setup" @@ fun () ->
  let doc = Spans.with_span "xml.index" (fun () -> Xml.Doc.of_tree tree) in
  let store = Spans.with_span "store.shred" (fun () -> Store.Shredded.shred doc) in
  let guide = Store.Shredded.guide store in
  let compiled =
    Array.map
      (fun (g, _, _) ->
        Spans.with_span "core.compile" (fun () -> Xmorph.Interp.compile ~enforce:false guide g))
      guards
  in
  { store; compiled; logical = Array.map (Guarded.Logical.of_compiled store) compiled }

(* Architecture 1: render the whole reshaped document, then query it.  The
   traced run parses and evaluates the query in two spans. *)
let arch1 ~traced p compiled q =
  let tree =
    Spans.with_span "core.render_tree" (fun () -> Xmorph.Interp.render p.store compiled)
  in
  if traced then
    let expr = Spans.with_span "xquery.parse" (fun () -> Xquery.Qparse.parse q) in
    Spans.with_span "xquery.eval" (fun () -> Xquery.Eval.eval tree expr)
  else Xquery.Eval.run tree q

(* About 26 pairs a second (three in-situ passes and one physical, with
   the kernel samples) on one core of the reference machine. *)
let pairs_per_second = 30

(* In-situ passes; an answer's time is the median of its passes. *)
let passes = 3

(* Set-up takes a few tens of milliseconds here, so it is timed three
   times as often as elsewhere for a median as steady as theirs. *)
let setup_reps = 3

let run cfg =
  let tree = Workloads.Dblp.generate ~seed:cfg.seed ~entries () in
  ignore (prepare tree);
  let setups = repeat_setup ((setup_reps * setup_before) - 1) (fun () -> prepare tree) in
  let last, p = time_setup (fun () -> prepare tree) in
  let roots =
    Array.mapi
      (fun i (_, root, _) ->
        match Guarded.Logical.query p.logical.(i) ("count(/result/" ^ root ^ ")") with
        | [ Xquery.Value.Num n ] -> int_of_float n
        | _ -> failwith "cannot count result roots")
      guards
  in
  let pairs =
    Perfbench.Sched.query_pairs ~seed:cfg.seed
      ~pairs:(max 210 (cfg.seconds * pairs_per_second))
      ~guards:(Array.length guards) ~templates:2
      ~max_bound:(fun g -> roots.(g))
  in
  let n = Array.length pairs in
  (* Warm-up: every guard under both architectures once. *)
  Array.iteri
    (fun g c ->
      let q = Printf.sprintf "count(/result/%s)" (let _, r, _ = guards.(g) in r) in
      ignore (arch1 ~traced:false p c q);
      ignore (Guarded.Logical.query p.logical.(g) q))
    p.compiled;
  let failed = ref 0 in
  (* Architecture 3 answers every pair first, then architecture 1, so the
     garbage of whole-document renders is collected inside the phase that
     made it instead of landing on the next in-situ query.  An in-situ
     answer takes a few milliseconds, so the in-situ phase makes [passes]
     passes over the pairs, compacting the heap before each, and an
     answer's latency is the median of its passes: neither a collection
     cycle that lands on one answer nor one pass's heap layout moves the
     figures.  The kernel is sampled before every [every]-th answer, about
     every 20 ms of answering in either phase. *)
  let pass ~traced p =
    let items = ref 0 and logical_blocks = ref 0 in
    let io () = (Store.Io_stats.snapshot (Store.Shredded.stats p.store)).blocks_read in
    let phase ~reps ~every f =
      let lat = Array.make_matrix n reps (0., 0.) and digests = Array.make n "" in
      for r = 0 to reps - 1 do
        Gc.compact ();
        Array.iteri
          (fun i (pair : Perfbench.Sched.pair) ->
            let q = query_text pair in
            if i mod every = 0 then sample_host ();
            let op () = time_at (fun () -> f ~first:(r = 0) pair q) in
            let t, answer = Spans.with_op (Printf.sprintf "%d.%d" i r) op in
            lat.(i).(r) <- t;
            if r = 0 then digests.(i) <- Digest.string (Xquery.Value.to_string answer))
          pairs
      done;
      sample_host ();
      (lat, digests)
    in
    let logical, answers3 =
      phase ~reps:passes ~every:10 (fun ~first pair q ->
          let b0 = io () in
          let a =
            Spans.with_span "guarded.logical" (fun () ->
                Guarded.Logical.query p.logical.(pair.pguard) q)
          in
          if first then begin
            logical_blocks := !logical_blocks + (io () - b0);
            items := !items + List.length a
          end;
          a)
    in
    let phys, answers1 =
      phase ~reps:1 ~every:2 (fun ~first:_ pair q -> arch1 ~traced p p.compiled.(pair.pguard) q)
    in
    Array.iteri
      (fun i d ->
        if d <> answers3.(i) then begin
          incr failed;
          Printf.printf "check failed: architectures disagree on %s\n"
            (query_text pairs.(i))
        end)
      answers1;
    ( phys, logical,
      [ ("xquery.result.items", float_of_int !items);
        ("guarded.logical.blocks_read", float_of_int !logical_blocks);
        ("store.io.blocks_read",
         float_of_int (Store.Io_stats.snapshot (Store.Shredded.stats p.store)).blocks_read) ] )
  in
  (* Each answer's time scaled to the reference host speed; an in-situ
     answer's is the median of its passes. *)
  let answer_times raw =
    Array.map (fun l -> Perfbench.Stats.median (Perfbench.Stats.sorted (List.map scaled (Array.to_list l)))) raw
  in
  let raw_phys, raw_logical, _ = pass ~traced:false p in
  let phys = answer_times raw_phys and logical = answer_times raw_logical in
  let rss = peak_rss_mb "self" in
  (* The untraced run's later set-ups; a traced run reports no set-up. *)
  let setups =
    if cfg.trace then []
    else (last :: setups) @ repeat_setup (setup_reps * setup_after) (fun () -> prepare tree)
  in
  let sorted = Perfbench.Stats.sorted (Array.to_list logical) in
  let decades = Array.make 8 0 in
  Array.iter (fun (q : Perfbench.Sched.pair) ->
      let d = Perfbench.Sched.decade q.bound in
      decades.(d) <- decades.(d) + 1) pairs;
  let info =
    (if setups = [] then []
     else [ ("setup samples (scaled s)",
             String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" (scaled s)) setups)) ])
    @ [ ("schedule",
       Printf.sprintf "%d pairs over %d guards x 2 templates; result roots %s"
         n (Array.length guards)
         (String.concat "/" (Array.to_list (Array.map string_of_int roots))));
      ("queries per selectivity decade",
       String.concat " "
         (List.filter_map (fun d ->
              if decades.(d) = 0 then None
              else Some (Printf.sprintf "1e%d:%d" d decades.(d)))
            (List.init 8 Fun.id)));
      ("host kernel", host_line ());
      ("query_logical_p50_ms (op_p50_ms)", Printf.sprintf "%.3f ms" (ms (Perfbench.Stats.median sorted)));
      ("query_logical_p95_ms (op_p95_ms)", Printf.sprintf "%.3f ms" (ms (pct sorted 95.)));
      ("query_phys_p50_ms (aux_p50_ms)", Printf.sprintf "%.3f ms" (median_ms (Array.to_list phys))) ]
  in
  let metrics =
    if not cfg.trace then
      [ ("setup_s", setup_s setups);
        ("rss_mb", rss);
        ("op_p50_ms", ms (Perfbench.Stats.median sorted));
        ("op_p95_ms", ms (pct sorted 95.));
        ("aux_p50_ms", median_ms (Array.to_list phys));
        (* Pairs per second of answering time: each pair's architecture-3
           median plus its architecture-1 time, so compaction and answer
           digests stay off the clock. *)
        ("ops_per_s",
         float_of_int n
         /. (Perfbench.Stats.sum (Array.to_list logical)
             +. Perfbench.Stats.sum (Array.to_list phys))) ]
    else begin
      Spans.enable ();
      let tp = prepare tree in
      let _, traw, counts = pass ~traced:true tp in
      let tlogical = answer_times traw in
      write_spans cfg;
      counts
      @ layer_medians (Spans.all ())
      @ [ ("trace.overhead_ms",
           median_ms (Array.to_list tlogical) -. ms (Perfbench.Stats.median sorted)) ]
    end
  in
  { attempted = n; failed = !failed; metrics; info }
