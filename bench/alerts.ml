(* The alerting evaluator's overhead on the serving path: the Fig. 15
   DBLP reshaping guard executed with alerting off versus enabled with a
   realistic rule set that never fires (thresholds far above the
   workload).  Both paths feed every execution into the query stream, as
   the daemon does whether or not alerting is on; what enabling adds is a
   paced ticker thread judging the rules against that stream in the
   background.  The acceptance bar is <1% on p50, same as the flight
   recorder.  Reports p50/p95 for both paths and the relative p50
   overhead, and writes the BENCH_alerts.json artifact (override the
   path with XMORPH_BENCH_ALERTS_OUT).  XMORPH_BENCH_FAST=1 shrinks the
   document and the repeat counts. *)

let fast = Sys.getenv_opt "XMORPH_BENCH_FAST" <> None

let out_path =
  Option.value ~default:"BENCH_alerts.json"
    (Sys.getenv_opt "XMORPH_BENCH_ALERTS_OUT")

let repeats = if fast then 10 else 50

let body_of outcome =
  match outcome with
  | Xmserve.Exec.Rendered { body; _ } -> body
  | Xmserve.Exec.Query_result { body; _ } -> body
  | Xmserve.Exec.Failed { message; _ } ->
      failwith ("bench alerts: execution failed: " ^ message)

(* Idle rules: shaped like production burn-rate/threshold alerting, with
   thresholds this workload can never breach (it produces no errors and
   each execution is far under ten seconds). *)
let idle_rules =
  [ { Xmobs.Alerts.name = "err-budget";
      cond =
        Xmobs.Alerts.Burn_rate
          { objective = 0.001; factor = 14.4; fast_s = 60; slow_s = 300 };
      for_s = 0.0; min_count = 1 };
    { Xmobs.Alerts.name = "err-rate";
      cond = Xmobs.Alerts.Err_rate { above = 0.5; window_s = 60 };
      for_s = 30.0; min_count = 1 };
    { Xmobs.Alerts.name = "latency";
      cond = Xmobs.Alerts.P95_ms { above = 10000.0; window_s = 60 };
      for_s = 30.0; min_count = 1 } ]

let run () =
  Exp_common.header
    "alerts: evaluator off vs enabled-idle (Fig. 15 DBLP guard)";
  let doc = Workloads.Dblp.to_doc ~entries:(if fast then 800 else 8000) () in
  let store = Store.Shredded.shred doc in
  let guard =
    Workloads.Shapes.guard Workloads.Shapes.Dblp_data
      Workloads.Shapes.Bushy_large
  in
  let stream = Xmobs.Alerts.stream idle_rules in
  let execute () =
    let t0 = Unix.gettimeofday () in
    let body =
      body_of (Xmserve.Exec.execute ~source:"bench" ~doc:"dblp" store guard)
    in
    (* The serving path feeds every query into the stream. *)
    Xmobs.Alerts.feed stream ~outcome:Xmobs.Qlog.Ok
      ~wall_s:(Unix.gettimeofday () -. t0);
    body
  in
  let time_one () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (execute ()));
    Unix.gettimeofday () -. t0
  in
  let sample label =
    Exp_common.sub label;
    (* One warmup execution outside the timed window. *)
    ignore (Sys.opaque_identity (execute ()));
    List.init repeats (fun _ -> time_one ())
  in
  let off = sample "alerting off" in
  let evaluator =
    Xmobs.Alerts.start ~metrics:(Xmobs.Metrics.create ()) stream
      { Xmobs.Alerts.interval_s = 0.25; log = None; webhook = None;
        webhook_timeout_s = 2.0; webhook_retries = 2; rules = idle_rules }
  in
  let on = sample "alerting enabled (idle rules)" in
  Xmobs.Alerts.tick_now evaluator;
  let firing = Xmobs.Alerts.firing evaluator in
  let seen =
    match Xmobs.Alerts.to_json evaluator with
    | Xmutil.Json.Obj fs -> (
        match List.assoc_opt "rules" fs with
        | Some (Xmutil.Json.List rs) -> List.length rs
        | _ -> 0)
    | _ -> 0
  in
  Xmobs.Alerts.stop evaluator;
  (* The evaluator must actually have been judging while we timed it. *)
  if seen <> List.length idle_rules then
    failwith "enabled phase was not evaluating the rule set";
  if firing <> 0 then
    failwith "idle rules fired during the bench: thresholds are wrong";
  let pct sample =
    Xmserve.Stats.percentiles (List.map (fun t -> t *. 1000.0) sample)
  in
  let off_p = pct off and on_p = pct on in
  let overhead_pct =
    if off_p.Xmserve.Stats.p50 > 0.0 then
      100.0
      *. (on_p.Xmserve.Stats.p50 -. off_p.Xmserve.Stats.p50)
      /. off_p.Xmserve.Stats.p50
    else 0.0
  in
  let columns =
    [ ("path", `L); ("p50_ms", `R); ("p95_ms", `R); ("mean_ms", `R) ]
  in
  let row name (p : Xmserve.Stats.pct) =
    [ name;
      Printf.sprintf "%.3f" p.Xmserve.Stats.p50;
      Printf.sprintf "%.3f" p.Xmserve.Stats.p95;
      Printf.sprintf "%.3f" p.Xmserve.Stats.mean ]
  in
  Exp_common.print_table ~columns
    [ row "off" off_p; row "enabled-idle" on_p ];
  Printf.printf "enabled-idle p50 overhead: %+.2f%% (%d rules judged, %d firing)\n"
    overhead_pct seen firing;
  let json =
    Xmutil.Json.Obj
      [ ("section", Xmutil.Json.String "alerts");
        ("guard", Xmutil.Json.String guard);
        ("repeats", Xmutil.Json.Int repeats);
        ("rules", Xmutil.Json.Int seen);
        ("off_p50_ms", Xmutil.Json.Float off_p.Xmserve.Stats.p50);
        ("off_p95_ms", Xmutil.Json.Float off_p.Xmserve.Stats.p95);
        ("on_p50_ms", Xmutil.Json.Float on_p.Xmserve.Stats.p50);
        ("on_p95_ms", Xmutil.Json.Float on_p.Xmserve.Stats.p95);
        ("overhead_p50_pct", Xmutil.Json.Float overhead_pct) ]
  in
  Xmutil.Json.write_file out_path json;
  Printf.printf "wrote %s\n%!" out_path
