(* Fig. 11: cumulative block I/O while the transformation runs.

   The paper sampled vmstat once per interval and plotted cumulative blocks
   in/out for each document factor, observing a steady slope ("XMorph is
   gradually processing the disk tables and generating output as the
   experiment runs") with no sudden bursts.

   We reproduce it by sampling the store's I/O accounting on a 5 ms timer
   from a second domain during the same MUTATE site transformation.  The
   section exits non-zero when a run was sampled fewer than twice or its
   cumulative total ever fell. *)

let samples_per_run = 10

let run () =
  Exp_common.header "Fig. 11: cumulative block I/O during MUTATE site";
  let ok = ref true in
  List.iter
    (fun (f, _tree, _bytes, store, _shred) ->
      let stats = Store.Shredded.stats store in
      Store.Io_stats.reset stats;
      let t0 = Unix.gettimeofday () in
      let (), series =
        Exp_common.sample_during
          (fun () -> Store.Io_stats.blocks_total (Store.Io_stats.snapshot stats))
          (fun () -> ignore (Exp_common.render_guard store "MUTATE site"))
      in
      let total = Unix.gettimeofday () -. t0 in
      ok := Exp_common.require_samples ~factor:f series && !ok;
      ignore
        (List.fold_left
           (fun last (_, b) ->
             if b < last then begin
               Printf.eprintf "factor %.2f: cumulative blocks fell %d -> %d\n" f last b;
               ok := false
             end;
             b)
           0 series);
      (* Resample to a fixed number of points for a compact table. *)
      let pick k =
        let target = total *. float_of_int k /. float_of_int samples_per_run in
        let rec go last = function
          | [] -> last
          | (t, b) :: rest -> if t <= target then go (t, b) rest else last
        in
        go (0.0, 0) series
      in
      Printf.printf "factor %.2f (total %.3fs):\n" f total;
      let rows =
        List.init samples_per_run (fun i ->
            let t, blocks = pick (i + 1) in
            [ Printf.sprintf "%.3f" t; string_of_int blocks ])
      in
      Exp_common.print_table
        ~columns:[ ("elapsed (s)", `R); ("cumulative blocks", `R) ]
        rows;
      print_newline ())
    (Lazy.force Fig10.corpus);
  print_endline
    "expected shape: near-constant slope within each run (steady streaming I/O),\n\
     with the final cumulative total growing linearly across factors.";
  if not !ok then exit 1
