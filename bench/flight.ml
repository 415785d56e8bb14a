(* The flight recorder's overhead, measured on the serving path it rides:
   the Fig. 15 DBLP reshaping guard executed with the recorder off versus
   enabled-idle (snapshots taken, no trigger ever fired).  As in the serve
   daemon, each execution is handed a request context that is finished
   afterwards into a request ring, so its query record lands where the
   recorder's bundles read it.  The acceptance
   bar is <1% on p50 — the recorder must be cheap enough to leave on in
   production, where it only earns its keep at the moment of an incident.
   Reports p50/p95 for both paths and the relative p50 overhead, and
   writes the BENCH_flight.json artifact (override the path with
   XMORPH_BENCH_FLIGHT_OUT).  XMORPH_BENCH_FAST=1 shrinks the document
   and the repeat counts. *)

let fast = Sys.getenv_opt "XMORPH_BENCH_FAST" <> None

let out_path =
  Option.value ~default:"BENCH_flight.json"
    (Sys.getenv_opt "XMORPH_BENCH_FLIGHT_OUT")

let repeats = if fast then 10 else 50

let body_of outcome =
  match outcome with
  | Xmserve.Exec.Rendered { body; _ } -> body
  | Xmserve.Exec.Query_result { body; _ } -> body
  | Xmserve.Exec.Failed { message; _ } ->
      failwith ("bench flight: execution failed: " ^ message)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let run () =
  Exp_common.header
    "flight: recorder off vs enabled-idle (Fig. 15 DBLP guard)";
  let doc = Workloads.Dblp.to_doc ~entries:(if fast then 800 else 8000) () in
  let store = Store.Shredded.shred doc in
  let guard =
    Workloads.Shapes.guard Workloads.Shapes.Dblp_data
      Workloads.Shapes.Bushy_large
  in
  let execute ring recorder =
    let ctx = Xmobs.Ctx.create () in
    let t0 = Unix.gettimeofday () in
    let body =
      body_of (Xmserve.Exec.execute ~ctx ~source:"bench" ~doc:"dblp" store guard)
    in
    Xmutil.Ring.push ring
      (Xmobs.Ctx.finish ctx ~label:"bench" ~outcome:"ok" ~status:200
         ~wall_s:(Unix.gettimeofday () -. t0));
    Option.iter Xmobs.Flight.snapshot recorder;
    body
  in
  let time_one ring recorder =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (execute ring recorder));
    Unix.gettimeofday () -. t0
  in
  let sample label ring recorder =
    Exp_common.sub label;
    (* One warmup execution outside the timed window. *)
    ignore (Sys.opaque_identity (execute ring recorder));
    List.init repeats (fun _ -> time_one ring recorder)
  in
  let off = sample "recorder off" (Xmutil.Ring.create 256) None in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_bench_flight_%d" (Unix.getpid ()))
  in
  let ring = Xmutil.Ring.create 256 in
  let recorder =
    match
      Xmobs.Flight.create
        ~requests:(fun () -> List.rev (Xmutil.Ring.to_list ring))
        ~metrics:(Xmobs.Metrics.create ()) ~dir ()
    with
    | Ok f -> f
    | Error m -> failwith ("bench flight: " ^ m)
  in
  let on = sample "recorder enabled (idle)" ring (Some recorder) in
  let captured =
    List.length
      (List.filter_map (fun c -> c.Xmobs.Ctx.c_qlog) (Xmutil.Ring.to_list ring))
  in
  rm_rf dir;
  (* The requests must actually have carried their records while we
     timed them. *)
  if captured = 0 then failwith "enabled phase recorded nothing";
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
  Printf.printf
    "enabled-idle p50 overhead: %+.2f%% (%d query records in the request \
     ring)\n"
    overhead_pct captured;
  let json =
    Xmutil.Json.Obj
      [ ("section", Xmutil.Json.String "flight");
        ("guard", Xmutil.Json.String guard);
        ("repeats", Xmutil.Json.Int repeats);
        ("off_p50_ms", Xmutil.Json.Float off_p.Xmserve.Stats.p50);
        ("off_p95_ms", Xmutil.Json.Float off_p.Xmserve.Stats.p95);
        ("on_p50_ms", Xmutil.Json.Float on_p.Xmserve.Stats.p50);
        ("on_p95_ms", Xmutil.Json.Float on_p.Xmserve.Stats.p95);
        ("overhead_p50_pct", Xmutil.Json.Float overhead_pct) ]
  in
  Xmutil.Json.write_file out_path json;
  Printf.printf "wrote %s\n%!" out_path
