(* Fig. 10: cost of transformation vs. data size.

   The paper generated XMark documents at factors 0.1-0.5 (11-55 MB) and
   evaluated MUTATE site (a full-document mutation over all path types),
   reporting (1) XMorph render time, (2) XMorph compile time (parsing, type
   analysis, information-loss checking — all data-free), and (3) the eXist
   best case: dumping the stored document.  Expected shape: render linear in
   document size, compile flat and tiny, eXist fastest in absolute terms
   (it only copies bytes).

   Our factors are scaled down 5x from the paper's so the whole suite runs
   on a laptop; the shape, not the absolute scale, is what reproduces. *)

let factors = [ 0.02; 0.04; 0.06; 0.08; 0.10 ]

(* Shared with figs 11-13: build each document/store once. *)
let corpus =
  lazy
    (List.map
       (fun f ->
         let tree = Workloads.Xmark.generate ~factor:f () in
         let doc = Xml.Doc.of_tree tree in
         let bytes = Xml.Printer.serialized_size tree in
         let t0 = Unix.gettimeofday () in
         let store = Store.Shredded.shred doc in
         let shred_s = Unix.gettimeofday () -. t0 in
         (f, tree, bytes, store, shred_s))
       factors)

let run () =
  Exp_common.header "Fig. 10: transformation cost vs data size (XMark, MUTATE site)";
  let rows =
    List.map
      (fun (f, tree, bytes, store, shred_s) ->
        let types = Xml.Type_table.count (Store.Shredded.types store) in
        let compile_s =
          Exp_common.median_time (fun () -> Exp_common.compile_guard store "MUTATE site")
        in
        (* The compile is timed in its own column; the render column
           times only the walk over an already-compiled guard. *)
        let compiled = Exp_common.compile_guard store "MUTATE site" in
        let render_s =
          Exp_common.median_time (fun () ->
              Xmorph.Interp.render_to_buffer store compiled (Buffer.create (1 lsl 20)))
        in
        let ex = Baseline.Exist_sim.store tree in
        let exist_s =
          Exp_common.median_time (fun () ->
              let buf = Buffer.create (1 lsl 20) in
              Baseline.Exist_sim.dump ex buf)
        in
        [
          Printf.sprintf "%.2f" f;
          Printf.sprintf "%.1f" (Exp_common.mb bytes);
          string_of_int types;
          Exp_common.fmt_s render_s;
          Printf.sprintf "%.2f" (compile_s *. 1000.);
          Printf.sprintf "%.4f" exist_s;
          Exp_common.fmt_s shred_s;
          Printf.sprintf "%.2f%%" (100.0 *. compile_s /. (compile_s +. render_s));
        ])
      (Lazy.force corpus)
  in
  Exp_common.print_table
    ~columns:
      [
        ("factor", `R); ("MB", `R); ("types", `R); ("xmorph render (s)", `R);
        ("xmorph compile (ms)", `R); ("eXist dump (s)", `R); ("shred (s)", `R);
        ("compile share", `R);
      ]
    rows;
  print_endline
    "expected shape: render grows linearly with size; compile is flat (data-free);\n\
     the eXist dump (a byte copy) is the fastest absolute baseline."
