(* The xmorph command-line tool.

   Subcommands mirror the architecture of Fig. 8: [shred] builds the store,
   [shape] prints a document's adorned shape, [check] runs the data-free
   compilation (type analysis + information-loss report), [run] transforms,
   [query] runs a guarded XQuery query, and [gen] emits the synthetic
   workload documents used by the benchmarks.

   Every subcommand loads its input through [load_input], compiles a
   guard through [compile] and prints an execution through
   [print_outcome]; the shell's commands call the same functions. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let exit_err m =
  Printf.eprintf "xmorph: %s\n" m;
  exit 1

let load_doc ?ctx path =
  try Xml.Doc.of_string ?ctx (read_file path) with
  | Sys_error m -> exit_err m
  | Xml.Parser.Error _ as e -> exit_err (Option.get (Xml.Parser.error_message e))

(* Every subcommand reads its input here: a saved store (made by [xmorph
   shred]) or raw XML, with the document it was shredded from when it was
   XML.  A store is known by its magic, so a damaged one says why it does
   not load instead of being parsed as XML.  Exits 1 when the input does
   not load. *)
let load_input ?ctx input =
  match Store.Shredded.is_store input with
  | exception Sys_error m -> exit_err m
  | false ->
      let doc = load_doc ?ctx input in
      (Store.Shredded.shred ?ctx doc, Some doc)
  | true -> (
      match Store.Shredded.load ?ctx input with
      | store -> (store, None)
      | exception (Store.Codec.Corrupt m | Invalid_argument m | Failure m) ->
          exit_err (Printf.sprintf "damaged store %s: %s" input m))

let load ?ctx input = fst (load_input ?ctx input)

(* Compile a guard against the store's shape without type enforcement, as
   the reports do; a guard that does not compile hands the compiler's
   message to [fail], which exits 1 by default. *)
let compile ?ctx ?(fail = exit_err) store guard =
  match Xmorph.Interp.compile ?ctx ~enforce:false (Store.Shredded.guide store) guard with
  | compiled -> compiled
  | exception Xmorph.Interp.Error m -> fail m

(* Print an execution's body, and its loss warnings on stderr with
   [~warnings:true].  A failure hands its message to [fail] (exit 1 by
   default), but a type-enforcement refusal, when [refused] words it,
   prints the loss report under that wording and exits 2. *)
let print_outcome ?(fail = exit_err) ?refused ?(warnings = false) outcome =
  match (outcome, refused) with
  | Xmserve.Exec.Failed { kind = Xmobs.Qlog.Type_mismatch; message }, Some why ->
      Printf.eprintf "xmorph: %s:\n%s" why message;
      exit 2
  | Xmserve.Exec.Failed { message; _ }, _ -> fail message
  | ( ( Xmserve.Exec.Rendered { body; compiled }
      | Xmserve.Exec.Query_result { body; compiled } ),
      _ ) ->
      if warnings then
        List.iter
          (fun w -> Printf.eprintf "warning: %s\n" w)
          compiled.Xmorph.Interp.loss.Xmorph.Report.warnings;
      print_string body

(* Execute a guard (or a guarded query) unenforced under the per-operator
   profiler and return its frames; a failure first hands its message to
   [fail]. *)
let profile_frames ?ctx ?(fail = exit_err) ~sinks ~source ~doc ?query store guard =
  let outcome, frames =
    Xmobs.Ctx.profiled ?ctx (fun ctx ->
        Xmserve.Exec.execute ~ctx ~sinks ~source ~doc ~enforce:false ?query store guard)
  in
  (match outcome with
  | Xmserve.Exec.Failed { message; _ } -> fail message
  | Xmserve.Exec.Rendered _ | Xmserve.Exec.Query_result _ -> ());
  frames

(* ---------- observability flags ---------- *)

(* Path "-" streams to stdout (pipelines; containerized deployments):
   the Shutdown-path telemetry exports run from at_exit, after the
   program's own output, so the two never interleave mid-line. *)
let write_file path contents =
  if String.equal path "-" then begin
    print_string contents;
    if String.length contents > 0
       && contents.[String.length contents - 1] <> '\n'
    then print_newline ();
    flush stdout
  end
  else begin
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc
  end

(* What a subcommand is given: the sinks it hands to every execution
   (and serve to its server), and the command context that --trace and
   --profile ask for, which it hands to every load and execution. *)
type obs = { sinks : Xmobs.Obs.sinks; ctx : Xmobs.Ctx.t option }

(* Exports are registered on the shared shutdown path, here and nowhere
   else: they capture whatever ran on clean exits (including [exit_err]
   bailouts) and on SIGTERM/SIGINT, which [Xmobs.Shutdown.install]
   converts into an ordinary [exit].  A killed serve daemon therefore
   still leaves complete, valid telemetry files. *)
let obs_setup trace metrics profile qlog qlog_max_mb stats_db =
  let stats_db =
    match stats_db with
    | Some _ as s -> s
    | None -> (
        match Sys.getenv_opt "XMORPH_STATS_DB" with
        | Some "" | None -> None
        | Some p -> Some p)
  in
  if trace <> None || metrics <> None || profile <> None || qlog <> None
     || stats_db <> None
  then Xmobs.Shutdown.install ();
  (* One context for the whole command: its spans are the command's (a
     serve daemon's startup; each served request keeps its own), bounded
     at 2^15.  It traces only with --trace, and keeps frames only with
     --profile; an untraced one stamps no trace id. *)
  let ctx =
    if trace = None && profile = None then None
    else
      Some
        (Xmobs.Ctx.create ~capacity:(1 lsl 15) ~traced:(trace <> None)
           ~frames:(profile <> None) ())
  in
  let export path contents =
    Option.iter
      (fun ctx ->
        Xmobs.Shutdown.on_exit (fun () ->
            write_file path (Xmutil.Json.to_string (contents ctx))))
      ctx
  in
  Option.iter (fun path -> export path Xmobs.Ctx.trace_json) trace;
  let metrics =
    Option.map
      (fun path ->
        let r = Xmobs.Metrics.create () in
        Xmobs.Shutdown.on_exit (fun () ->
            write_file path
              (Xmutil.Json.to_string (Xmobs.Metrics.to_json ~r ())));
        r)
      metrics
  in
  Option.iter
    (fun path ->
      export path (fun ctx -> Xmobs.Frames.to_json (Xmobs.Ctx.frame_roots ctx)))
    profile;
  let qlog =
    Option.map
      (fun path ->
        let max_bytes =
          Option.map (fun mb -> max 1 mb * 1024 * 1024) qlog_max_mb
        in
        let q = Xmobs.Qlog.create ?max_bytes path in
        Xmobs.Shutdown.on_exit (fun () -> Xmobs.Qlog.close q);
        q)
      qlog
  in
  let statdb =
    Option.map
      (fun path ->
        let db = Xmobs.Statdb.load path in
        Xmobs.Shutdown.on_exit (fun () -> Xmobs.Statdb.flush db);
        db)
      stats_db
  in
  { sinks = { Xmobs.Obs.qlog; statdb; metrics }; ctx }

(* Taken by the subcommands that load, compile, execute or serve; the
   offline analyzers and the clients take none of them. *)
let obs_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Trace pipeline layers (parse, shred, compile, loss, \
                   render, each closest join, ...) and write the spans to \
                   $(docv) as Chrome trace_event JSON (open at \
                   chrome://tracing or ui.perfetto.dev).  \
                   $(docv) - streams to stdout at exit.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Collect pipeline metrics (counters, gauges, latency \
                   histograms, store I/O) and write them to $(docv) as JSON.")
  in
  let profile =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Profile per-operator evaluation (wall time, node counts, \
                   closest pairs, block I/O) and write the frame tree to \
                   $(docv) as JSON.  See also the $(b,profile) subcommand.")
  in
  let qlog =
    Arg.(value & opt (some string) None
         & info [ "qlog" ] ~docv:"FILE"
             ~doc:"Append one JSONL record per executed guard/query to \
                   $(docv) (the same schema the serve daemon writes), \
                   including on error paths and signal-interrupted runs.  \
                   $(docv) - streams the records to stdout.  Analyze with \
                   $(b,xmorph stats).")
  in
  let qlog_max_mb =
    Arg.(value & opt (some int) None
         & info [ "qlog-max-mb" ] ~docv:"N"
             ~doc:"Rotate the --qlog file when it reaches $(docv) MiB: the \
                   current file is renamed to FILE.1 (replacing any previous \
                   rotation) and a fresh one is opened, so long-running \
                   daemons keep at most ~2x$(docv) MiB of log on disk.")
  in
  let stats_db =
    Arg.(value & opt (some string) None
         & info [ "stats-db" ] ~docv:"FILE"
             ~doc:"Record per-operator statistics (calls, wall/self time, \
                   node counts, closest pairs, block I/O, \
                   predicted-vs-actual cardinality q-error) into the \
                   persistent warehouse at $(docv), merging with whatever \
                   history is already there.  Defaults to the \
                   XMORPH_STATS_DB environment variable.  Recorded \
                   executions bypass the plan and result caches.  \
                   Inspect with \
                   $(b,xmorph explain), $(b,xmorph stats --stats-db), or \
                   GET /debug/opstats on serve.")
  in
  Term.(const obs_setup $ trace $ metrics $ profile $ qlog $ qlog_max_mb
        $ stats_db)

(* A warehouse-to-read argument: --stats-db is the documented name, and
   --db, its first spelling, stays accepted as a hidden alias. *)
let warehouse_arg ~doc =
  let named =
    Arg.(value & opt (some file) None
         & info [ "stats-db" ] ~docv:"STATSDB" ~doc)
  in
  let alias =
    Arg.(value & opt (some file) None
         & info [ "db" ] ~docv:"STATSDB" ~docs:Manpage.s_none
             ~doc:"Hidden alias for $(b,--stats-db).")
  in
  Term.(const (fun a b -> match a with Some _ -> a | None -> b)
        $ named $ alias)

let guard_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GUARD" ~doc:"XMorph guard text.")

(* The document or store a subcommand reads, at position [n]. *)
let input_arg n =
  Arg.(required & pos n (some file) None & info [] ~docv:"INPUT" ~doc:"XML document or store.")

(* ---------- shred ---------- *)

let shred_cmd =
  let doc =
    "Shred one or more XML documents (a collection) into an xmorph store file."
  in
  let inputs =
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"XML" ~doc:"Input XML document(s).")
  in
  let output =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Output store path.")
  in
  let run { ctx; _ } output inputs =
    let trees =
      List.map
        (fun path ->
          match read_file path with
          | exception Sys_error m -> exit_err m
          | text -> (
              match Xml.Parser.parse ?ctx text with
              | tree -> tree
              | exception (Xml.Parser.Error _ as e) ->
                  exit_err (path ^ ": " ^ Option.get (Xml.Parser.error_message e))))
        inputs
    in
    let t0 = Unix.gettimeofday () in
    let store = Store.Shredded.shred ?ctx (Xml.Doc.of_forest ?ctx trees) in
    Store.Shredded.save ?ctx store output;
    Printf.printf "shredded %d document(s): %d nodes (%d types, %d KiB) in %.3fs\n"
      (List.length inputs)
      (Store.Shredded.node_count store)
      (Xml.Type_table.count (Store.Shredded.types store))
      (Store.Shredded.data_bytes store / 1024)
      (Unix.gettimeofday () -. t0)
  in
  Cmd.v (Cmd.info "shred" ~doc) Term.(const run $ obs_term $ output $ inputs)

(* ---------- shape ---------- *)

let shape_cmd =
  let doc = "Print the adorned shape (DataGuide with cardinalities) of a document or store." in
  let run { ctx; _ } input =
    print_string (Xml.Dataguide.to_string (Store.Shredded.guide (load ?ctx input)))
  in
  Cmd.v (Cmd.info "shape" ~doc) Term.(const run $ obs_term $ input_arg 0)

(* ---------- shape-diff ---------- *)

let shape_diff_cmd =
  let doc =
    "Diff the adorned shapes of two documents or stores: which types were \
     added, removed, moved, or changed cardinality — the schema evolution a \
     guard has to survive."
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Old document or store.") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New document or store.") in
  let run { ctx; _ } a b =
    let guide input = Store.Shredded.guide (load ?ctx input) in
    let d = Xml.Shape_diff.diff (guide a) (guide b) in
    print_string (Xml.Shape_diff.to_string d);
    if not (Xml.Shape_diff.is_empty d) then exit 4
  in
  Cmd.v (Cmd.info "shape-diff" ~doc) Term.(const run $ obs_term $ a $ b)

(* ---------- check ---------- *)

(* One titled section of a text report (check, explain). *)
let section heading text = Printf.printf "== %s ==\n%s" heading text

let check_cmd =
  let doc =
    "Compile a guard against a document's shape: print the algebra, the \
     label-to-type report, the target shape, and the information-loss report \
     (no data is transformed unless --quantify is given)."
  in
  let quantify =
    Arg.(value & flag
         & info [ "q"; "quantify" ]
             ~doc:"Also measure the loss exactly on the data: closest edges preserved / manufactured / discarded.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as JSON.")
  in
  let run { ctx; _ } guard input quantify json =
    let store = load ?ctx input in
    let c = compile ?ctx store guard in
    let measured () = Xmorph.Quantify.measure ?ctx store c.Xmorph.Interp.shape in
    if json then
      print_endline
        (Xmutil.Json.to_string
           (Xmutil.Json.Obj
              ([ ("guard", Xmutil.Json.String guard);
                 ("labels", Xmorph.Report.label_to_json c.Xmorph.Interp.labels);
                 ("loss", Xmorph.Report.loss_to_json c.Xmorph.Interp.loss) ]
              @
              if quantify then [ ("measured", Xmorph.Quantify.to_json (measured ())) ]
              else [])))
    else begin
      section "algebra" (Xmorph.Algebra.to_string c.Xmorph.Interp.algebra);
      section "label-to-type report" (Xmorph.Report.label_to_string c.Xmorph.Interp.labels);
      section "target shape" (Xmorph.Tshape.to_string c.Xmorph.Interp.shape);
      section "information loss report (static, Thms. 1-2)"
        (Xmorph.Report.loss_to_string c.Xmorph.Interp.loss);
      if quantify then
        section "measured information loss" (Xmorph.Quantify.to_string (measured ()))
    end
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ obs_term $ guard_arg $ input_arg 1 $ quantify $ json)

(* ---------- run ---------- *)

let run_cmd =
  let doc = "Evaluate a guard: transform the data to the guard's shape and print the XML." in
  let force =
    Arg.(value & flag & info [ "f"; "force" ] ~doc:"Transform even when type enforcement rejects the guard.")
  in
  let compact = Arg.(value & flag & info [ "compact" ] ~doc:"No indentation.") in
  let run { sinks; ctx } guard input force compact =
    print_outcome ~warnings:true
      ~refused:"guard rejected by type enforcement (use --force or a CAST)"
      (Xmserve.Exec.execute ?ctx ~sinks ~source:"run" ~doc:input
         ~enforce:(not force) ~compact (load ?ctx input) guard)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ obs_term $ guard_arg $ input_arg 1 $ force $ compact)

(* ---------- query ---------- *)

let query_cmd =
  let doc = "Run a guarded XQuery query: the guard reshapes the data, then the query runs on the result." in
  let guard =
    Arg.(required & opt (some string) None & info [ "g"; "guard" ] ~docv:"GUARD" ~doc:"Query guard.")
  in
  let query =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XQuery text.")
  in
  let force = Arg.(value & flag & info [ "f"; "force" ] ~doc:"Skip type enforcement.") in
  let run { sinks; ctx } query input guard force =
    print_outcome ~refused:"guard rejected"
      (Xmserve.Exec.execute ?ctx ~sinks ~source:"query" ~doc:input
         ~enforce:(not force) ~query (load ?ctx input) guard)
  in
  Cmd.v (Cmd.info "query" ~doc) Term.(const run $ obs_term $ query $ input_arg 1 $ guard $ force)

(* ---------- explain ---------- *)

let explain_cmd =
  let doc =
    "Explain a guard against this data: the algebra plan annotated with \
     predicted cardinalities (and, with --stats-db, historical per-operator \
     actuals and timings from the warehouse), each closest join's type \
     distance, join level, instance counts, and predicted-vs-actual pair \
     count with q-error, and the guard's recorded operator history."
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the explanation as JSON.")
  in
  let run { sinks; ctx } guard input json_out =
    let store = load ?ctx input in
    let guide = Store.Shredded.guide store in
    let compiled = compile ?ctx store guard in
    let ghash = Xmobs.Qlog.hash_text guard in
    let db = sinks.Xmobs.Obs.statdb in
    let hist op =
      Option.bind db (fun db -> Xmobs.Statdb.find db ~guard_hash:ghash ~op)
    in
    (* Predicted output cardinality of an operator: the instance counts of
       the source types the analysis resolved it to. *)
    let pred_nodes (n : Xmorph.Algebra.t) =
      match n.Xmorph.Algebra.inferred with
      | [] -> None
      | tys ->
          Some
            (List.fold_left
               (fun acc ty -> acc + Xml.Dataguide.instance_count guide ty)
               0 tys)
    in
    let annot n =
      let pred =
        match pred_nodes n with
        | None -> []
        | Some k -> [ Printf.sprintf "pred=%d nodes" k ]
      in
      let actual =
        match hist (Xmorph.Algebra.op_name n) with
        | None -> []
        | Some s ->
            let calls = max 1 s.Xmobs.Statdb.calls in
            [ Printf.sprintf "hist calls=%d out/call=%.0f self/call=%.3fms"
                s.Xmobs.Statdb.calls
                (float_of_int s.Xmobs.Statdb.out_nodes /. float_of_int calls)
                (s.Xmobs.Statdb.self_us /. float_of_int calls /. 1000.0) ]
      in
      match pred @ actual with
      | [] -> ""
      | parts -> "  [" ^ String.concat "; " parts ^ "]"
    in
    let edges = Xmorph.Render.explain ?ctx store compiled.Xmorph.Interp.shape in
    let history =
      match db with
      | None -> []
      | Some db -> Xmobs.Statdb.guard_ops db ~guard_hash:ghash
    in
    let plan =
      Format.asprintf "%a" (Xmorph.Algebra.pp_annotated ~annot)
        compiled.Xmorph.Interp.algebra
    in
    if json_out then
      print_endline
        (Xmutil.Json.to_string ~pretty:true
           (Xmutil.Json.Obj
              [ ("guard", Xmutil.Json.String guard);
                ("guard_hash", Xmutil.Json.String ghash);
                ("plan", Xmutil.Json.String plan);
                ("joins",
                 Xmutil.Json.List
                   (List.map
                      (fun (e : Xmorph.Render.edge_explanation) ->
                        Xmutil.Json.Obj
                          [ ("parent", Xmutil.Json.String e.parent);
                            ("child", Xmutil.Json.String e.child);
                            ("type_distance", Xmutil.Json.Int e.type_distance);
                            ("join_level", Xmutil.Json.Int e.join_level);
                            ("parents", Xmutil.Json.Int e.parent_instances);
                            ("children", Xmutil.Json.Int e.child_instances);
                            ("pairs", Xmutil.Json.Int e.pairs);
                            ("orphans", Xmutil.Json.Int e.orphans);
                            ("predicted",
                             Xmutil.Json.String (Xmutil.Card.to_string e.predicted));
                            ("qerror",
                             Xmutil.Json.Float (Xmutil.Card.qerror e.predicted e.pairs)) ])
                      edges));
                ("history", Xmutil.Json.List (List.map Xmserve.Stats.op_json history))
              ]))
    else begin
      section "plan" plan;
      section "closest joins" (Format.asprintf "%a" Xmorph.Render.pp_explanation edges);
      if history <> [] then
        section
          (Printf.sprintf "history (%s)"
             (Option.value ~default:"" (Option.bind db Xmobs.Statdb.path)))
          (String.concat "" (List.map (fun s -> "  " ^ Xmserve.Stats.op_line s ^ "\n") history))
    end
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ obs_term $ guard_arg $ input_arg 1 $ json)

(* ---------- profile ---------- *)

let profile_cmd =
  let doc =
    "EXPLAIN ANALYZE for a guard: evaluate it and print the per-operator \
     frame tree — calls, wall time (cumulative and self), input/output node \
     counts, closest-pair counts, and block-I/O deltas per operator.  It \
     runs what xmorph run serves; with --query, what xmorph query serves."
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~docv:"QUERY"
             ~doc:"Profile this guarded XQuery query instead of the transformation.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON instead of the annotated tree.")
  in
  let run { sinks; ctx } guard input query json =
    let frames =
      profile_frames ?ctx ~sinks ~source:"profile" ~doc:input ?query (load ?ctx input) guard
    in
    if json then print_endline (Xmutil.Json.to_string (Xmobs.Frames.to_json frames))
    else print_string (Xmobs.Frames.to_text frames)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ obs_term $ guard_arg $ input_arg 1 $ query $ json)

(* ---------- view ---------- *)

(* The document a saved store was shredded from, rebuilt from its records
   as [Xml.Doc.to_tree] builds it.  Ids are preorder ranks, so a node's
   children are the later ids naming it as their parent, in id order,
   attributes first: a walk down the ids meets every child before its
   parent.  A view is evaluated against one document, so a store of
   several is refused. *)
let store_tree path store =
  let n = Store.Shredded.node_count store in
  let attrs = Array.make n [] and kids = Array.make n [] and roots = ref [] in
  for i = n - 1 downto 0 do
    let r = Store.Shredded.node store i in
    match r.kind with
    | Xml.Doc.Attribute -> attrs.(r.parent) <- (r.name, r.value) :: attrs.(r.parent)
    | Xml.Doc.Element ->
        let children = if r.value = "" then kids.(i) else Xml.Tree.Text r.value :: kids.(i) in
        let e = Xml.Tree.Element { name = r.name; attrs = attrs.(i); children } in
        if r.parent >= 0 then kids.(r.parent) <- e :: kids.(r.parent) else roots := e :: !roots
  done;
  match !roots with
  | [ root ] -> root
  | roots ->
      exit_err
        (Printf.sprintf "%s holds %d documents; a view is evaluated against one" path
           (List.length roots))

let view_cmd =
  let doc =
    "Render a guard as an equivalent XQuery program (architecture 2 of the \
     paper): the printed query, evaluated against the source document, \
     produces the transformed XML."
  in
  let eval_flag =
    Arg.(value & flag & info [ "eval" ] ~doc:"Also evaluate the generated view and print the result.")
  in
  let run { ctx; _ } guard input eval_flag =
    let store, doc = load_input ?ctx input in
    let compiled = compile ?ctx store guard in
    let view =
      try Guarded.View_gen.generate (Store.Shredded.guide store) compiled.Xmorph.Interp.shape
      with Guarded.View_gen.Unsupported m ->
        exit_err ("cannot render this guard as an XQuery view: " ^ m)
    in
    print_endline view;
    if eval_flag then begin
      let tree = match doc with Some doc -> Xml.Doc.to_tree doc | None -> store_tree input store in
      print_endline "";
      print_string (Xml.Printer.to_string_indented (Guarded.View_gen.eval ?ctx tree view))
    end
  in
  Cmd.v (Cmd.info "view" ~doc) Term.(const run $ obs_term $ guard_arg $ input_arg 1 $ eval_flag)

(* ---------- infer ---------- *)

let infer_cmd =
  let doc =
    "Infer a query guard from an XQuery query (the shape the query \
     navigates), optionally checking it against a document."
  in
  let query =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XQuery text.")
  in
  let input =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"INPUT" ~doc:"Optional XML document or store to check the guard against.")
  in
  let run { ctx; _ } query input =
    match Guarded.Infer.guard_of_query ?ctx query with
    | exception Failure m -> exit_err m
    | exception (Xquery.Qparse.Error _ as e) ->
        exit_err (Option.get (Xquery.Qparse.error_message query e))
    | guard ->
        print_endline guard;
        Option.iter
          (fun input ->
            let compiled = compile ?ctx (load ?ctx input) guard in
            print_string (Xmorph.Report.loss_to_string compiled.Xmorph.Interp.loss))
          input
  in
  Cmd.v (Cmd.info "infer" ~doc) Term.(const run $ obs_term $ query $ input)

(* ---------- gen ---------- *)

let gen_cmd =
  let doc = "Generate a synthetic workload document (xmark, dblp, nasa)." in
  let kind =
    Arg.(required & pos 0 (some (enum [ ("xmark", `Xmark); ("dblp", `Dblp); ("nasa", `Nasa) ])) None
         & info [] ~docv:"KIND" ~doc:"One of xmark, dblp, nasa.")
  in
  let scale =
    Arg.(value & opt float 0.01
         & info [ "s"; "scale" ] ~docv:"S"
             ~doc:"XMark benchmark factor, or entry count scale for dblp (x1000) and nasa (x100).")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output path (stdout by default).") in
  let run kind scale seed output =
    let tree =
      match kind with
      | `Xmark -> Workloads.Xmark.generate ?seed ~factor:scale ()
      | `Dblp -> Workloads.Dblp.generate ?seed ~entries:(int_of_float (scale *. 1000.)) ()
      | `Nasa -> Workloads.Nasa.generate ?seed ~datasets:(int_of_float (scale *. 100.)) ()
    in
    let text = Xml.Printer.to_string tree in
    match output with
    | None -> print_endline text
    | Some path ->
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %d bytes to %s\n" (String.length text) path
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const run $ kind $ scale $ seed $ output)

(* ---------- fmt ---------- *)

let fmt_cmd =
  let doc = "Parse a guard and print its canonical form." in
  let run { ctx; _ } guard =
    match Xmorph.Parse.guard ?ctx guard with
    | ast -> print_endline (Xmorph.Ast.to_string ast)
    | exception e -> (
        match Xmorph.Parse.error_message guard e with
        | Some m -> exit_err m
        | None -> raise e)
  in
  Cmd.v (Cmd.info "fmt" ~doc) Term.(const run $ obs_term $ guard_arg)

(* ---------- equiv ---------- *)

let equiv_cmd =
  let doc =
    "Do two differently shaped documents hold the same data?  Transform both \
     with the same guard and compare the results up to sibling order (shapes \
     are unordered)."
  in
  let a = Arg.(required & pos 1 (some file) None & info [] ~docv:"A" ~doc:"First document.") in
  let b = Arg.(required & pos 2 (some file) None & info [] ~docv:"B" ~doc:"Second document.") in
  let run { ctx; _ } guard a b =
    let transform input =
      let store = load ?ctx input in
      Xmorph.Interp.render ?ctx store
        (compile ?ctx ~fail:(fun m -> exit_err (input ^ ": " ^ m)) store guard)
    in
    let ta = transform a and tb = transform b in
    if Xml.Tree.equal_unordered ta tb then begin
      Printf.printf "equivalent under %s\n" guard;
      exit 0
    end
    else begin
      Printf.printf "NOT equivalent under %s\n" guard;
      exit 3
    end
  in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const run $ obs_term $ guard_arg $ a $ b)

(* ---------- shell ---------- *)

let shell_cmd =
  let doc =
    "Interactive shell over a document or store: type a guard to transform, \
     or :commands for reports and guarded queries."
  in
  let run { sinks; ctx } input =
    let store = load ?ctx input in
    let guide = Store.Shredded.guide store in
    let current =
      ref
        (match Xml.Dataguide.roots guide with
        | root :: _ -> "MUTATE " ^ Xml.Type_table.label (Store.Shredded.types store) root
        | [] -> "")
    in
    let guard g = if g = "" then !current else g in
    (* A failure is printed on stdout and the shell reads on; a guard that
       does not compile ends its command there. *)
    let exception Skip in
    let compiled g =
      compile ?ctx store (guard g) ~fail:(fun m ->
          print_endline m;
          raise Skip)
    in
    let execute ?query g =
      print_outcome ~fail:print_endline
        (Xmserve.Exec.execute ?ctx ~sinks ~source:"shell" ~doc:input ~enforce:false
           ?query store g)
    in
    (* Each command prints what its subcommand prints for that section. *)
    let commands =
      [ (":guard", fun g ->
          ignore (compiled g);
          current := guard g;
          Printf.printf "guard set: %s\n" !current);
        (":check", fun g ->
          let c = compiled g in
          print_string (Xmorph.Report.label_to_string c.Xmorph.Interp.labels);
          print_string (Xmorph.Report.loss_to_string c.Xmorph.Interp.loss));
        (":explain", fun g ->
          Format.printf "%a@?" Xmorph.Render.pp_explanation
            (Xmorph.Render.explain ?ctx store (compiled g).Xmorph.Interp.shape));
        (":profile", fun g ->
          print_string
            (Xmobs.Frames.to_text
               (profile_frames ?ctx ~fail:print_endline ~sinks ~source:"shell" ~doc:input
                  store (guard g))));
        (":quantify", fun g ->
          print_string
            (Xmorph.Quantify.to_string
               (Xmorph.Quantify.measure ?ctx store (compiled g).Xmorph.Interp.shape)));
        (":query", fun q -> execute ~query:q !current) ]
    in
    let handle line =
      match String.trim line with
      | "" -> ()
      | ":quit" | ":q" -> raise Exit
      | ":help" | ":h" ->
          print_string
            "commands:\n\
            \  :shape            print the adorned shape\n\
            \  :guard GUARD      set the current guard\n\
            \  :check [GUARD]    label/loss reports (current guard by default)\n\
            \  :explain [GUARD]  join diagnostics\n\
            \  :profile [GUARD]  per-operator profile of a transformation\n\
            \  :quantify [GUARD] measured information loss\n\
            \  :query QUERY      guarded query (in situ)\n\
            \  :quit             exit\n\
            \  GUARD             transform and print\n"
      | ":shape" -> print_string (Xml.Dataguide.to_string guide)
      | line -> (
          match List.find_opt (fun (c, _) -> String.starts_with ~prefix:c line) commands with
          | Some (c, run) ->
              let n = String.length c in
              run (String.trim (String.sub line n (String.length line - n)))
          | None -> execute line)
    in
    let interactive = Unix.isatty Unix.stdin in
    if interactive then print_endline "xmorph shell - :help for commands, :quit to exit";
    try
      while true do
        if interactive then (print_string "xmorph> "; flush stdout);
        match input_line stdin with
        | line -> ( try handle line with Skip -> ())
        | exception End_of_file -> raise Exit
      done
    with Exit -> ()
  in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const run $ obs_term $ input_arg 0)

(* ---------- serve ---------- *)

let serve_cmd =
  let doc =
    "Serve one or more stores over HTTP: GET /healthz (SLO-aware with \
     --slo-p95-ms / --slo-error-rate), GET /metrics (Prometheus text \
     exposition with labeled request/query/guard families), GET /stats \
     (JSON), POST /query (the body is a guard; ?doc= selects a store, \
     ?query= adds a guarded XQuery query), GET /debug/requests (recent \
     per-request telemetry), GET /debug/trace/<id> (one request's span \
     tree), and GET /debug/timeseries (rolling per-second rates and \
     windowed percentiles; watch live with $(b,xmorph top)).  Every query \
     runs under a per-request trace context (W3C traceparent honored and \
     returned).  Combine with --qlog to append one JSONL record per query \
     (--qlog-max-mb rotates it); SIGTERM/SIGINT flush every telemetry \
     sink before exiting."
  in
  let inputs =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"STORE" ~doc:"Store files or XML documents to serve.")
  in
  let port =
    Arg.(value & opt int 7780
         & info [ "p"; "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let addr =
    Arg.(value & opt string "127.0.0.1"
         & info [ "addr" ] ~docv:"ADDR"
             ~doc:"Address to bind: a numeric IPv4 address, or $(b,localhost) \
                   (loopback).")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:"Maximum concurrent requests (clamped to 1..64); further \
                   clients wait in the accept queue.")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound port number to $(docv) once listening \
                   (for scripts that use --port 0).")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-query auto-capture: re-execute any POST /query whose \
                   wall time reaches $(docv) milliseconds once under the \
                   per-operator profiler, in a context of its own, and \
                   attach the profile JSON to its GET /debug/trace entry.  \
                   0 captures every query.  Defaults to the XMORPH_SLOW_MS \
                   environment variable when set.")
  in
  let slow_log =
    Arg.(value & opt (some string) None
         & info [ "slow-log" ] ~docv:"DIR"
             ~doc:"Also write each slow-query capture to \
                   $(docv)/<trace-id>.json (the directory is created on \
                   first use).  Only meaningful with --slow-ms.")
  in
  let window =
    Arg.(value & opt int 60
         & info [ "window" ] ~docv:"SECONDS"
             ~doc:"Rolling time-series window behind GET /debug/timeseries \
                   and the SLO objectives (clamped to 1..3600).")
  in
  let slo_p95_ms =
    Arg.(value & opt (some float) None
         & info [ "slo-p95-ms" ] ~docv:"MS"
             ~doc:"Latency objective: GET /healthz degrades to 503 while \
                   windowed query p95 exceeds $(docv) milliseconds (the \
                   body names the breach); recovery is held briefly so the \
                   health signal does not flap.")
  in
  let slo_error_rate =
    Arg.(value & opt (some float) None
         & info [ "slo-error-rate" ] ~docv:"FRACTION"
             ~doc:"Error-rate objective: GET /healthz degrades to 503 while \
                   the windowed query error fraction exceeds $(docv) (for \
                   example 0.05 for 5%).")
  in
  let cache_mb =
    Arg.(value & opt (some int) None
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"Enable the two-tier serve cache (compiled-guard plans \
                   plus a byte-budgeted LRU of rendered results) with \
                   $(docv) mebibytes of result budget.  Cached responses \
                   are byte-identical to cold executions and invalidate on \
                   POST /update via the store generation.  0 disables.  \
                   Defaults to the XMORPH_CACHE_MB environment variable \
                   when set; off otherwise.")
  in
  let incident_dir =
    Arg.(value & opt (some string) None
         & info [ "incident-dir" ] ~docv:"DIR"
             ~doc:"Enable the flight recorder: keep bounded rings of recent \
                   telemetry and write a versioned JSON incident bundle to \
                   $(docv) (created if missing) on an SLO breach, an \
                   error-rate spike, a fatal signal, or POST \
                   /debug/incident.  Inspect bundles with $(b,xmorph \
                   incident); list and fetch them live via GET \
                   /debug/incidents.")
  in
  let incident_keep =
    Arg.(value & opt int 16
         & info [ "incident-keep" ] ~docv:"N"
             ~doc:"How many incident bundles to retain (oldest deleted \
                   first; 1..1000).")
  in
  let debug_ring =
    Arg.(value & opt (some int) None
         & info [ "debug-ring" ] ~docv:"N"
             ~doc:"Capacity of the completed-request ring behind GET \
                   /debug/requests and the spans and query records of \
                   incident bundles (1..65536; default 256).")
  in
  let alert_rules =
    Arg.(value & opt (some string) None
         & info [ "alert-rules" ] ~docv:"FILE"
             ~doc:"Enable the alerting evaluator: load threshold and \
                   burn-rate rules from the versioned JSON file $(docv) and \
                   evaluate them on a paced timer over the rolling query \
                   windows.  Firing/resolved transitions land in the rule \
                   file's JSONL alert log and webhook sinks, trip an \
                   $(b,alert)-kind incident bundle when --incident-dir is \
                   on, and surface via GET /debug/alerts, /metrics, and \
                   $(b,xmorph top).  A corrupt file warns once on stderr \
                   and disables alerting; the daemon still serves.  Replay \
                   rules offline with $(b,xmorph alerts).")
  in
  let run obs inputs port addr workers port_file slow_ms slow_log window
      slo_p95_ms slo_error_rate cache_mb incident_dir incident_keep
      debug_ring alert_rules =
    let { sinks; ctx } = obs in
    (* The daemon is multi-threaded, so an async [Sys.signal] handler can
       be delivered to a thread that never reaches a safepoint while the
       workers sit in [accept] and [run]'s thread in [Thread.join].
       Block the termination signals before any thread exists and
       consume them deterministically with sigwait; [exit] then runs the
       shared Shutdown flush chain (qlog, --metrics, --trace, ...). *)
    ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
    let serving = Atomic.make None in
    ignore
      (Thread.create
         (fun () ->
           let n = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
           (* Dying on a signal is an incident: the server's bundle is
              written before [exit] runs the flushes. *)
           Option.iter
             (fun server -> Xmserve.Server.on_signal server n)
             (Atomic.get serving);
           Stdlib.exit (Xmobs.Shutdown.signal_exit_code n))
         ());
    (match incident_keep with
    | n when n < 1 || n > 1000 ->
        exit_err "serve: --incident-keep must be in 1..1000"
    | _ -> ());
    (match debug_ring with
    | Some n when n < 1 || n > 65536 ->
        exit_err "serve: --debug-ring must be in 1..65536"
    | Some _ | None -> ());
    let stores = List.map (fun input -> (Filename.basename input, load ?ctx input)) inputs in
    let slow_ms =
      match slow_ms with
      | Some _ as v -> v
      | None ->
          Option.bind (Sys.getenv_opt "XMORPH_SLOW_MS") float_of_string_opt
    in
    let cache_mb =
      match cache_mb with
      | Some _ as v -> v
      | None ->
          Option.bind (Sys.getenv_opt "XMORPH_CACHE_MB") int_of_string_opt
    in
    let cache_bytes =
      match cache_mb with
      | Some mb when mb > 0 -> Some (mb * 1024 * 1024)
      | Some _ | None -> None
    in
    let alerts =
      (* Same failure policy as a corrupt --stats-db warehouse: the daemon
         must come up even when an operator fat-fingers the rules file, so
         warn once and serve without alerting rather than refuse to start. *)
      match alert_rules with
      | None -> None
      | Some file -> (
          match Xmobs.Alerts.load file with
          | Ok cfg -> Some cfg
          | Error m ->
              Printf.eprintf
                "xmorph: serve: --alert-rules %s: %s (alerting disabled)\n%!"
                file m;
              None)
    in
    let server =
      match
        Xmserve.Server.create ~sinks ~addr ~port ~workers ?slow_ms ?slow_log
          ~window ?slo_p95_ms ?slo_error_rate ?incident_dir ~incident_keep
          ?alerts ?debug_ring ?cache_bytes ~stores ()
      with
      | s -> s
      | exception Unix.Unix_error (e, fn, _) ->
          exit_err (Printf.sprintf "cannot listen on %s:%d: %s: %s" addr port
                      fn (Unix.error_message e))
      | exception Sys_error m -> exit_err ("serve: " ^ m)
    in
    Atomic.set serving (Some server);
    (match port_file with
    | None -> ()
    | Some f -> write_file f (string_of_int (Xmserve.Server.port server) ^ "\n"));
    Printf.printf "xmorph serve: listening on http://%s:%d (%d store%s, %d workers)\n%!"
      (Xmserve.Server.addr server)
      (Xmserve.Server.port server)
      (List.length stores)
      (if List.length stores = 1 then "" else "s")
      workers;
    Xmserve.Server.run server
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ obs_term $ inputs $ port $ addr $ workers $ port_file
          $ slow_ms $ slow_log $ window $ slo_p95_ms $ slo_error_rate
          $ cache_mb $ incident_dir $ incident_keep $ debug_ring
          $ alert_rules)

(* ---------- stats ---------- *)

let stats_cmd =
  let doc =
    "Analyze a structured query log (JSONL from serve or --qlog): outcome \
     and error-rate tables, wall/eval/render and block-I/O percentiles \
     (p50/p95/p99 through the same histogram machinery as /metrics), and \
     the top-N slowest queries.  With --compare, verdict against a previous \
     run's JSON artifact (exit 7 on regression)."
  in
  let log =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"LOG" ~doc:"Query log (JSONL).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let top =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"N" ~doc:"How many slowest queries to list.")
  in
  let compare_file =
    Arg.(value & opt (some file) None
         & info [ "compare" ] ~docv:"BASELINE"
             ~doc:"Compare p95 wall latency against a previous JSON artifact; \
                   exit 7 when it regressed beyond --tolerance.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the JSON artifact to $(docv) (defaults to \
                   BENCH_serve.json when --compare is given).")
  in
  let tolerance =
    Arg.(value & opt float 0.25
         & info [ "tolerance" ] ~docv:"T"
             ~doc:"Allowed p95 slowdown ratio for --compare (0.25 = 25%).")
  in
  let check_json =
    Arg.(value & opt_all file []
         & info [ "check-json" ] ~docv:"FILE"
             ~doc:"Validate that $(docv) parses as JSON (repeatable; useful \
                   for asserting a killed daemon left complete telemetry \
                   files).  No LOG is needed when only checking.")
  in
  let db_file =
    warehouse_arg
      ~doc:"Cross-reference the log with an operator-statistics \
            warehouse (written by serve --stats-db): per guard hash, query \
            counts and mean latency from the log joined with the \
            warehouse's per-operator calls, self time, and \
            cardinality q-error."
  in
  let run log json top compare_file out tolerance check_json db_file =
    List.iter
      (fun path ->
        match Xmutil.Json.read_file path with
        | _ -> Printf.printf "%s: valid JSON\n" path
        | exception Sys_error m -> exit_err m
        | exception Xmutil.Json.Parse_error { pos; msg } ->
            exit_err (path ^ ": " ^ Xmutil.Json.error_message ~pos ~msg))
      check_json;
    match log with
    | None ->
        if check_json = [] then
          exit_err "stats: missing LOG argument (or --check-json FILE)"
    | Some path ->
        let entries, malformed =
          match Xmserve.Stats.load path with
          | r -> r
          | exception Sys_error m -> exit_err m
        in
        let summary = Xmserve.Stats.analyze ~top ~log_path:path ~malformed entries in
        let cross =
          match db_file with
          | None -> None
          | Some db_path ->
              Some
                (Xmserve.Stats.cross_reference
                   ~db:(Xmobs.Statdb.load db_path) entries)
        in
        let comparison =
          match compare_file with
          | None -> None
          | Some baseline_path -> (
              match
                Xmserve.Stats.compare_baseline ~tolerance ~baseline_path summary
              with
              | Ok c -> Some c
              | Error m -> exit_err m)
        in
        let artifact =
          let base = Xmserve.Stats.to_json summary in
          let base =
            match (base, cross) with
            | Xmutil.Json.Obj fields, Some gs ->
                Xmutil.Json.Obj
                  (fields
                   @ [ ("warehouse", Xmserve.Stats.cross_reference_to_json gs) ])
            | _ -> base
          in
          match (base, comparison) with
          | Xmutil.Json.Obj fields, Some c ->
              Xmutil.Json.Obj
                (fields @ [ ("compare", Xmserve.Stats.comparison_to_json c) ])
          | _ -> base
        in
        let out_path =
          match (out, compare_file) with
          | Some f, _ -> Some f
          | None, Some _ -> Some "BENCH_serve.json"
          | None, None -> None
        in
        (match out_path with
        | None -> ()
        | Some "-" -> write_file "-" (Xmutil.Json.to_string artifact)
        | Some f -> (
            try Xmutil.Json.write_file f artifact with Sys_error m -> exit_err m));
        if json then print_endline (Xmutil.Json.to_string ~pretty:true artifact)
        else begin
          print_string (Xmserve.Stats.to_text summary);
          Option.iter
            (fun gs -> print_string (Xmserve.Stats.cross_reference_to_text gs))
            cross;
          Option.iter
            (fun c -> print_string (Xmserve.Stats.comparison_to_text c))
            comparison;
          Option.iter (fun f -> Printf.printf "wrote %s\n" f) out_path
        end;
        match comparison with
        | Some c when c.Xmserve.Stats.regression -> exit 7
        | _ -> ()
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ log $ json $ top $ compare_file $ out $ tolerance
          $ check_json $ db_file)

(* ---------- incident ---------- *)

let incident_cmd =
  let doc =
    "Inspect an incident bundle written by the serve flight recorder \
     (--incident-dir): render the post-mortem report — trigger header, \
     context summary, recent-query table, span timeline — or validate the \
     bundle shape with --check (exit 1 on a malformed bundle; used by CI \
     to gate artifacts).  With --stats-db, cross-reference the bundle's \
     guard hashes against an operator-statistics warehouse."
  in
  let bundle =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BUNDLE" ~doc:"Incident bundle (JSON).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the validated bundle as pretty JSON.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate only: print ok/error and exit nonzero on a \
                   malformed bundle.")
  in
  let db_file =
    warehouse_arg
      ~doc:"Cross-reference the bundle's recent queries with an \
            operator-statistics warehouse (written by serve \
            --stats-db), as $(b,xmorph stats --stats-db) does for logs."
  in
  let run bundle json check db_file =
    match Xmserve.Incident.check bundle with
    | Error m -> exit_err (Printf.sprintf "%s: %s" bundle m)
    | Ok t ->
        if check then Printf.printf "%s: ok (%s: %s)\n" bundle t.kind t.reason
        else if json then
          print_endline (Xmutil.Json.to_string ~pretty:true t.Xmserve.Incident.json)
        else begin
          print_string (Xmserve.Incident.to_text t);
          match db_file with
          | None -> ()
          | Some db_path ->
              print_string
                (Xmserve.Stats.cross_reference_to_text
                   (Xmserve.Stats.cross_reference
                      ~db:(Xmobs.Statdb.load db_path)
                      t.Xmserve.Incident.qlog))
        end
  in
  Cmd.v (Cmd.info "incident" ~doc)
    Term.(const run $ bundle $ json $ check $ db_file)

(* ---------- alerts (offline backtester) ---------- *)

let alerts_cmd =
  let doc =
    "Backtest an alert rules file against a recorded query log: replay \
     the JSONL log (from serve or --qlog) through the same evaluator \
     that powers serve --alert-rules, stepping a synthetic clock one \
     second at a time, and report every firing/resolved transition plus \
     each rule's final state.  Tune thresholds, $(b,for) durations, and \
     burn-rate factors against yesterday's traffic before deploying \
     them; a corrupt rules file is a hard error here (the daemon merely \
     warns and disables)."
  in
  let rules_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"RULES" ~doc:"Alert rules file (versioned JSON).")
  in
  let log_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"LOG" ~doc:"Query log to replay (JSONL).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable report: transitions, per-rule final \
                   states, and replay counts as one JSON object.")
  in
  let run rules_file log_file json_out =
    let cfg =
      match Xmobs.Alerts.load rules_file with
      | Ok cfg -> cfg
      | Error m -> exit_err (Printf.sprintf "alerts: %s" m)
    in
    let entries, malformed = Xmserve.Stats.load log_file in
    if entries = [] then
      exit_err (Printf.sprintf "alerts: %s: no parsable records" log_file);
    let entries =
      List.sort
        (fun (a : Xmobs.Qlog.entry) (b : Xmobs.Qlog.entry) ->
          Float.compare a.Xmobs.Qlog.ts b.Xmobs.Qlog.ts)
        entries
    in
    let t0 = (List.hd entries).Xmobs.Qlog.ts in
    let now = ref t0 in
    let stream = Xmobs.Alerts.stream ~clock:(fun () -> !now) cfg.rules in
    let eng = Xmobs.Alerts.engine stream cfg.rules in
    let transitions = ref [] in
    (* Advance the synthetic clock to [target], running one evaluation
       pass per elapsed second on the way — the offline stand-in for the
       live evaluator's paced ticker. *)
    let step_to target =
      while target -. !now >= 1.0 do
        now := !now +. 1.0;
        List.iter (fun t -> transitions := t :: !transitions)
          (Xmobs.Alerts.tick eng)
      done;
      if target > !now then now := target
    in
    List.iter
      (fun (e : Xmobs.Qlog.entry) ->
        step_to e.Xmobs.Qlog.ts;
        Xmobs.Alerts.feed stream ~outcome:e.Xmobs.Qlog.outcome
          ~wall_s:e.Xmobs.Qlog.wall_s)
      entries;
    (* Drain: keep ticking until every rule's window has slid past the
       last record, so breaches still in flight get their resolved edge. *)
    let tail_s =
      let rule_span (r : Xmobs.Alerts.rule) =
        Xmobs.Alerts.rule_window r
        + int_of_float (Float.ceil r.Xmobs.Alerts.for_s)
      in
      5 + List.fold_left (fun acc r -> max acc (rule_span r)) 0 cfg.rules
    in
    step_to (!now +. float_of_int tail_s);
    let transitions = List.rev !transitions in
    let states = Xmobs.Alerts.states eng in
    if json_out then
      print_endline
        (Xmutil.Json.to_string ~pretty:true
           (Xmutil.Json.Obj
              [ ("rules", Xmutil.Json.String rules_file);
                ("log", Xmutil.Json.String log_file);
                ("records", Xmutil.Json.Int (List.length entries));
                ("malformed", Xmutil.Json.Int malformed);
                ("replayed_s",
                 Xmutil.Json.Float (Float.round ((!now -. t0) *. 1000.) /. 1000.));
                ("transitions",
                 Xmutil.Json.List
                   (List.map
                      (fun (t : Xmobs.Alerts.transition) ->
                        match Xmobs.Alerts.transition_to_json t with
                        | Xmutil.Json.Obj fs ->
                            (* Absolute engine time means nothing offline;
                               report the offset into the log instead. *)
                            Xmutil.Json.Obj
                              (List.map
                                 (function
                                   | ("at", _) ->
                                       ("at_s",
                                        Xmutil.Json.Float
                                          (Float.round
                                             ((t.Xmobs.Alerts.at -. t0)
                                             *. 10.) /. 10.))
                                   | f -> f)
                                 fs)
                        | j -> j)
                      transitions));
                ("final",
                 Xmutil.Json.Obj
                   (List.map (fun (n, s) -> (n, Xmutil.Json.String s)) states))
              ]))
    else begin
      Printf.printf "replayed %d record%s (%d malformed) through %d rule%s over %.0fs\n"
        (List.length entries)
        (if List.length entries = 1 then "" else "s")
        malformed (List.length cfg.rules)
        (if List.length cfg.rules = 1 then "" else "s")
        (!now -. t0);
      List.iter
        (fun (t : Xmobs.Alerts.transition) ->
          Printf.printf "  +%7.1fs  %-9s %-24s %s\n"
            (t.Xmobs.Alerts.at -. t0)
            (Xmobs.Alerts.edge_to_string t.Xmobs.Alerts.edge)
            t.Xmobs.Alerts.rule t.Xmobs.Alerts.reason)
        transitions;
      if transitions = [] then print_endline "  (no transitions)";
      List.iter
        (fun (name, st) ->
          let count e =
            List.length
              (List.filter
                 (fun (t : Xmobs.Alerts.transition) ->
                   t.Xmobs.Alerts.rule = name && t.Xmobs.Alerts.edge = e)
                 transitions)
          in
          Printf.printf "rule %s: %d firing, %d resolved, final state %s\n"
            name (count Xmobs.Alerts.Firing) (count Xmobs.Alerts.Resolved) st)
        states
    end
  in
  Cmd.v (Cmd.info "alerts" ~doc)
    Term.(const run $ rules_file $ log_file $ json)

(* ---------- http ---------- *)

let http_cmd =
  let doc =
    "Minimal HTTP client for the serve daemon (so smoke tests do not need \
     curl): print the response body to stdout; exit 22 when the status is \
     400 or above."
  in
  let meth =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"METHOD" ~doc:"GET, POST, ...")
  in
  let url =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"URL" ~doc:"http:// URL.")
  in
  let data =
    Arg.(value & opt (some string) None
         & info [ "d"; "data" ] ~docv:"BODY" ~doc:"Request body.")
  in
  let show_head =
    Arg.(value & flag
         & info [ "i"; "include" ] ~doc:"Also print the status and headers.")
  in
  let run meth url data show_head =
    match Xmserve.Http.request_url ?body:data ~meth url with
    | Error m -> exit_err m
    | Ok (status, headers, body) ->
        if show_head then begin
          Printf.printf "HTTP/1.1 %d %s\n" status
            (Xmserve.Http.status_reason status);
          List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) headers;
          print_newline ()
        end;
        print_string body;
        if status >= 400 then exit 22
  in
  Cmd.v (Cmd.info "http" ~doc)
    Term.(const run $ meth $ url $ data $ show_head)

(* ---------- top ---------- *)

let top_cmd =
  let doc =
    "Live dashboard for a serve daemon: poll GET /debug/timeseries and \
     GET /stats and render req/s, error rate, windowed p50/p95/p99 \
     latency, block I/O rate, RSS, SLO status, and the top guards by \
     cumulative time.  Refreshes in place until interrupted; --once \
     prints a single frame, --once --json a machine-readable snapshot."
  in
  let url =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"URL"
             ~doc:"The daemon's base URL, e.g. http://127.0.0.1:7780.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "n"; "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh interval (clamped to 0.1..3600).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one frame and exit (no screen clear).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"With --once: print the raw snapshot (timeseries + stats) \
                   as JSON instead of the rendered dashboard.")
  in
  let run url interval once json =
    let interval = Float.max 0.1 (Float.min 3600.0 interval) in
    if json && not once then
      exit_err "xmorph top: --json requires --once";
    if once then
      match Xmserve.Top.fetch url with
      | Error m -> exit_err m
      | Ok snap ->
          if json then
            print_string (Xmutil.Json.to_string (Xmserve.Top.to_json snap) ^ "\n")
          else print_string (Xmserve.Top.render snap)
    else begin
      (* A full-screen refresh loop: clear, draw, sleep.  Fetch errors
         draw as a frame too (the daemon restarting should not kill the
         dashboard watching it); Ctrl-C exits via the default handler. *)
      let rec loop () =
        let frame =
          match Xmserve.Top.fetch ~timeout_s:interval url with
          | Ok snap -> Xmserve.Top.render snap
          | Error m -> Printf.sprintf "xmorph top - %s\n(unreachable: %s)\n" url m
        in
        print_string "\027[2J\027[H";
        print_string frame;
        flush Stdlib.stdout;
        Thread.delay interval;
        loop ()
      in
      loop ()
    end
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ url $ interval $ once $ json)

let main =
  let doc = "shape-polymorphic XML transformations (XMorph 2.0)" in
  let info = Cmd.info "xmorph" ~version:"2.0" ~doc in
  Cmd.group info
    [ shred_cmd; shape_cmd; shape_diff_cmd; check_cmd; explain_cmd; profile_cmd;
      run_cmd; query_cmd; infer_cmd; view_cmd; shell_cmd; equiv_cmd; fmt_cmd;
      gen_cmd; serve_cmd; stats_cmd; incident_cmd; alerts_cmd; http_cmd;
      top_cmd ]

let () = exit (Cmd.eval main)
