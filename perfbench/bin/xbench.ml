(* The benchmark's workload runner.  perfbench/run.py builds and invokes
   it; see perfbench/README.md for the workloads and metrics. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let dir = ref "" and spans_dir = ref "" and xmorph = ref "" in
  let rss_probe = ref "" and guard = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "oneshot | serve-mix | guarded-query");
      ("--seed", Arg.Set_int seed, "N  schedule and input seed");
      ("--seconds", Arg.Set_int seconds, "S  sizes the fixed operation list");
      ("--trace", Arg.Set_int trace, "0|1  traced run (per-layer metrics)");
      ("--dir", Arg.Set_string dir, "DIR  scratch directory");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR  where a traced run writes spans");
      ("--xmorph", Arg.Set_string xmorph, "EXE  the xmorph CLI (serve-mix)");
      ("--rss-probe", Arg.Set_string rss_probe,
       "FILE  run one oneshot operation on FILE and print this process's VmHWM");
      ("--guard", Arg.Set_string guard, "GUARD  the guard for --rss-probe") ]
    (fun a -> raise (Arg.Bad a))
    "xbench --workload W --seed N --seconds S --trace 0|1 --dir DIR --spans-dir DIR \
     --xmorph EXE";
  if !rss_probe <> "" then begin
    Oneshot.rss_probe !rss_probe !guard;
    exit 0
  end;
  if !dir = "" || !spans_dir = "" || !xmorph = "" then begin
    prerr_endline "xbench: --dir, --spans-dir and --xmorph are required";
    exit 2
  end;
  let cfg =
    { Common.workload = !workload; seed = !seed; seconds = max 1 !seconds;
      trace = !trace = 1; dir = !dir; spans_dir = !spans_dir; xmorph = !xmorph }
  in
  let run =
    match !workload with
    | "oneshot" -> Oneshot.run
    | "guarded-query" -> Guarded_query.run
    | "serve-mix" -> Serve_mix.run
    | w -> (prerr_endline ("unknown workload " ^ w); exit 2)
  in
  let r = run cfg in
  Common.emit ~table:(if cfg.trace then Common.per_layer else Common.end_to_end) r
