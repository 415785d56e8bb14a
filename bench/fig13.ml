(* Fig. 13: available memory while the transformation runs.

   On the paper's JVM, "Java grabs all available memory within the first 30%
   of an experiment" — available RAM drops early, then flattens.  The OCaml
   runtime grows its heap the same way (demand-driven), so we sample the
   major heap during the run and report "available memory" against the
   paper's 3.5 GB machine, on a 5 ms timer from a second domain, as fig11
   does.  The section exits non-zero when a run was sampled fewer than
   twice. *)

let machine_mb = 3584.0 (* the paper's 3.5 GB testbed *)

let samples_per_run = 8

let run () =
  Exp_common.header "Fig. 13: available memory during MUTATE site";
  let ok = ref true in
  List.iter
    (fun (f, _tree, _bytes, store, _shred) ->
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let (), series =
        Exp_common.sample_during Exp_common.heap_mb (fun () ->
            ignore (Exp_common.render_guard store "MUTATE site"))
      in
      let total = Unix.gettimeofday () -. t0 in
      ok := Exp_common.require_samples ~factor:f series && !ok;
      let pick k =
        let target = total *. float_of_int k /. float_of_int samples_per_run in
        let rec go last = function
          | [] -> last
          | (t, h) :: rest -> if t <= target then go (t, h) rest else last
        in
        go (0.0, Exp_common.heap_mb ()) series
      in
      Printf.printf "factor %.2f:\n" f;
      let rows =
        List.init samples_per_run (fun i ->
            let t, heap = pick (i + 1) in
            [
              Printf.sprintf "%.3f" t;
              Printf.sprintf "%.1f" heap;
              Printf.sprintf "%.1f" (machine_mb -. heap);
            ])
      in
      Exp_common.print_table
        ~columns:[ ("elapsed (s)", `R); ("heap (MB)", `R); ("available (MB)", `R) ]
        rows;
      print_newline ())
    (Lazy.force Fig10.corpus);
  print_endline
    "expected shape: the heap grows early in the run and flattens — available\n\
     memory falls fast then levels, as in the paper's JVM plot.";
  if not !ok then exit 1
