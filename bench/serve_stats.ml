(* The serve-mode query pipeline measured through its own telemetry: run a
   mixed guard workload through Xmserve.Exec with a query log enabled,
   then aggregate the log with the offline analyzer — the same
   entry/percentile path `xmorph stats` uses on a production log.  The
   table is the analyzer's percentile summary; the JSON artifact is a
   `xmorph stats --compare` baseline (BENCH_serve.json, override with
   XMORPH_BENCH_SERVE_OUT).  XMORPH_BENCH_FAST=1 shrinks the workload. *)

let fast = Sys.getenv_opt "XMORPH_BENCH_FAST" <> None

let out_path =
  Option.value ~default:"BENCH_serve.json"
    (Sys.getenv_opt "XMORPH_BENCH_SERVE_OUT")

let repeats = if fast then 5 else 40

let guards =
  [
    (* the render-everything baseline *)
    ("identity", "MUTATE site", None);
    (* the paper's reshaping guard family *)
    ("reshape", "MORPH item [ name description ]", None);
    (* guarded XQuery: reshape then query the result *)
    ("guarded-query", "MORPH item [ name ]", Some "//name");
    (* a failing guard: error-path records must be as cheap as the log
       claims *)
    ("error", "MUTATE nosuch_label", None);
  ]

let run () =
  Exp_common.header "serve: query-log telemetry percentiles (xmorph stats)";
  let tree =
    Workloads.Xmark.generate ~seed:7 ~factor:(if fast then 0.01 else 0.05) ()
  in
  let store = Store.Shredded.shred (Xml.Doc.of_tree tree) in
  let log_path = Filename.temp_file "xmorph_bench_serve" ".jsonl" in
  Sys.remove log_path;
  let qlog = Xmobs.Qlog.create log_path in
  let sinks = { Xmobs.Obs.no_sinks with qlog = Some qlog } in
  List.iter
    (fun (label, guard, query) ->
      Exp_common.sub (Printf.sprintf "%s (%s)" label guard);
      for _ = 1 to repeats do
        ignore
          (Xmserve.Exec.execute ~sinks ~source:"bench" ~doc:label ?query store
             guard)
      done)
    guards;
  Xmobs.Qlog.close qlog;
  let entries, malformed = Xmserve.Stats.load log_path in
  let summary =
    Xmserve.Stats.analyze ~top:3 ~log_path:out_path ~malformed entries
  in
  Sys.remove log_path;
  print_string (Xmserve.Stats.to_text summary);
  let columns =
    [ ("series", `L); ("p50", `R); ("p95", `R); ("p99", `R); ("mean", `R);
      ("max", `R) ]
  in
  let row name (p : Xmserve.Stats.pct) =
    [ name;
      Printf.sprintf "%.3f" p.Xmserve.Stats.p50;
      Printf.sprintf "%.3f" p.Xmserve.Stats.p95;
      Printf.sprintf "%.3f" p.Xmserve.Stats.p99;
      Printf.sprintf "%.3f" p.Xmserve.Stats.mean;
      Printf.sprintf "%.3f" p.Xmserve.Stats.max ]
  in
  let rows =
    [ row "wall_ms" summary.Xmserve.Stats.wall_ms;
      row "eval_ms" summary.Xmserve.Stats.eval_ms;
      row "render_ms" summary.Xmserve.Stats.render_ms;
      row "blocks" summary.Xmserve.Stats.blocks ]
  in
  Exp_common.print_table ~columns rows;
  Xmutil.Json.write_file out_path (Xmserve.Stats.to_json summary);
  Printf.printf "wrote %s\n%!" out_path
