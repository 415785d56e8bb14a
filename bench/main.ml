(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Sec. IX), plus the ablations from DESIGN.md and a Bechamel
   micro-suite.

   Run everything:        dune exec bench/main.exe
   Run selected sections: dune exec bench/main.exe -- fig10 fig14 *)

let sections =
  [
    ("table1", Table1.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("ablations", Ablations.run);
    ("architectures", Architectures.run);
    ("micro", Micro.run);
    ("serve", Serve_stats.run);
    ("cache", Cache.run);
    ("flight", Flight.run);
    ("alerts", Alerts.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run ->
          Exp_common.set_section name;
          run ()
      | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
