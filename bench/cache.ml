(* The two-tier serve cache measured end to end: the Fig. 15 DBLP
   reshaping guard executed cold (cache disabled — compile, evaluate,
   render) versus warm (cache enabled and primed — plan and rendered body
   both served from memory).  Reports p50/p95 for both paths and the
   cold/warm p50 speedup, and writes the BENCH_cache.json artifact
   (override the path with XMORPH_BENCH_CACHE_OUT).  The warm body is
   checked byte-identical to the cold body before anything is timed.
   XMORPH_BENCH_FAST=1 shrinks the document and the repeat counts. *)

let fast = Sys.getenv_opt "XMORPH_BENCH_FAST" <> None

let out_path =
  Option.value ~default:"BENCH_cache.json"
    (Sys.getenv_opt "XMORPH_BENCH_CACHE_OUT")

let repeats = if fast then 10 else 50

let body_of outcome =
  match outcome with
  | Xmserve.Exec.Rendered { body; _ } -> body
  | Xmserve.Exec.Query_result { body; _ } -> body
  | Xmserve.Exec.Failed { message; _ } ->
      failwith ("bench cache: execution failed: " ^ message)

let run () =
  Exp_common.header "cache: cold vs warm serve latency (Fig. 15 DBLP guard)";
  let doc = Workloads.Dblp.to_doc ~entries:(if fast then 800 else 8000) () in
  let store = Store.Shredded.shred doc in
  let guard =
    Workloads.Shapes.guard Workloads.Shapes.Dblp_data
      Workloads.Shapes.Bushy_large
  in
  let execute () =
    body_of (Xmserve.Exec.execute ~source:"bench" ~doc:"dblp" store guard)
  in
  let time_one () =
    let t0 = Unix.gettimeofday () in
    let body = execute () in
    (Unix.gettimeofday () -. t0, body)
  in
  let sample label =
    Exp_common.sub label;
    List.init repeats (fun _ -> time_one ())
  in
  (* Cold path: every request compiles and renders. *)
  Xmcache.disable ();
  let cold = sample "cold (no cache)" in
  (* Warm path: prime once, then every request is a result-tier hit. *)
  Xmcache.enable ~budget_bytes:(64 * 1024 * 1024);
  let primed = execute () in
  let warm = sample "warm (result-tier hits)" in
  let stats = Option.get (Xmcache.stats ()) in
  Xmcache.disable ();
  (* The headline contract before any timing claim: byte identity. *)
  let cold_body = snd (List.hd cold) in
  if primed <> cold_body then failwith "warm prime differs from cold body";
  List.iter
    (fun (_, b) -> if b <> cold_body then failwith "warm body differs")
    warm;
  if stats.Xmcache.result_hits < repeats then
    failwith "warm phase was not served from the cache";
  let pct sample =
    Xmserve.Stats.percentiles
      (List.map (fun (t, _) -> t *. 1000.0) sample)
  in
  let cold_p = pct cold and warm_p = pct warm in
  let speedup =
    if warm_p.Xmserve.Stats.p50 > 0.0 then
      cold_p.Xmserve.Stats.p50 /. warm_p.Xmserve.Stats.p50
    else Float.infinity
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
  Exp_common.print_table ~columns [ row "cold" cold_p; row "warm" warm_p ];
  Printf.printf "cold/warm p50 speedup: %.1fx (body %d bytes)\n"
    speedup (String.length cold_body);
  let json =
    Xmutil.Json.Obj
      [ ("section", Xmutil.Json.String "cache");
        ("guard", Xmutil.Json.String guard);
        ("body_bytes", Xmutil.Json.Int (String.length cold_body));
        ("repeats", Xmutil.Json.Int repeats);
        ("cold_p50_ms", Xmutil.Json.Float cold_p.Xmserve.Stats.p50);
        ("cold_p95_ms", Xmutil.Json.Float cold_p.Xmserve.Stats.p95);
        ("warm_p50_ms", Xmutil.Json.Float warm_p.Xmserve.Stats.p50);
        ("warm_p95_ms", Xmutil.Json.Float warm_p.Xmserve.Stats.p95);
        ("speedup_p50", Xmutil.Json.Float speedup) ]
  in
  Xmutil.Json.write_file out_path json;
  Printf.printf "wrote %s\n%!" out_path
