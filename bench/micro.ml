(* Bechamel micro-benchmarks: one Test.make per table/figure, exercising the
   kernel of each experiment at a small fixed size.  These complement the
   full sweeps above with statistically robust per-operation timings. *)

open Bechamel
open Toolkit

let make_tests () =
  (* Shared fixtures, built once. *)
  let fig_c = Xml.Doc.of_string Workloads.Figures.instance_c in
  let fig_c_guide = Xml.Dataguide.of_doc fig_c in
  let xmark = Workloads.Xmark.to_doc ~factor:0.005 () in
  let xmark_store = Store.Shredded.shred xmark in
  let xmark_tree = Xml.Doc.to_tree xmark in
  let exist = Baseline.Exist_sim.store xmark_tree in
  let dblp = Workloads.Dblp.to_doc ~entries:500 () in
  let dblp_store = Store.Shredded.shred dblp in
  let nasa_store = Store.Shredded.shred (Workloads.Nasa.to_doc ~datasets:50 ()) in
  [
    Test.make ~name:"table1/path-card-matrix"
      (Staged.stage (fun () ->
           let types = Xml.Dataguide.all_types fig_c_guide in
           List.iter
             (fun t ->
               List.iter
                 (fun u ->
                   ignore (Sys.opaque_identity (Xml.Dataguide.path_card fig_c_guide t u)))
                 types)
             types));
    (* The two ingest passes on their own, outside perfbench's traced
       spans: the node-table indexer and the dataguide's cardinalities. *)
    Test.make ~name:"ingest/index"
      (Staged.stage (fun () -> ignore (Sys.opaque_identity (Xml.Doc.of_tree xmark_tree))));
    Test.make ~name:"ingest/dataguide"
      (Staged.stage (fun () -> ignore (Sys.opaque_identity (Xml.Dataguide.of_doc xmark))));
    Test.make ~name:"fig10/xmorph-render"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Exp_common.render_guard xmark_store "MUTATE site"))));
    Test.make ~name:"fig10/xmorph-compile"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Exp_common.compile_guard xmark_store "MUTATE site"))));
    Test.make ~name:"fig10/exist-dump"
      (Staged.stage (fun () ->
           let buf = Buffer.create 65536 in
           ignore (Sys.opaque_identity (Baseline.Exist_sim.dump exist buf))));
    Test.make ~name:"fig14/dblp-morph-medium"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Exp_common.render_guard dblp_store "MORPH author [title [year]]"))));
    Test.make ~name:"fig15/nasa-bushy-small"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Exp_common.render_guard nasa_store
                   (Workloads.Shapes.guard Workloads.Shapes.Nasa_data
                      Workloads.Shapes.Bushy_small)))));
    Test.make ~name:"fig16/translate-op"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Exp_common.compile_guard xmark_store
                   "MORPH person [ person.name ] | TRANSLATE person -> human"))));
    (* The serve daemon records every request into rolling time-series on
       the hot path: one bump + one histogram record must stay cheap. *)
    (let ts_req = Xmobs.Timeseries.create ~window:60 Counter in
     let ts_lat = Xmobs.Timeseries.create ~window:60 Histogram in
     Test.make ~name:"obs/timeseries-record"
       (Staged.stage (fun () ->
            Xmobs.Timeseries.bump ts_req;
            Xmobs.Timeseries.record ts_lat 0.004)));
  ]

let run () =
  Exp_common.header "Bechamel micro-benchmarks (one per table/figure)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"xmorph" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Exp_common.print_table
    ~columns:[ ("benchmark", `L); ("time/run", `R) ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; human ])
       rows)
