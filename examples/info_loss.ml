(* Information loss in action (Secs. I and V).

   The Fig. 3 guard pulls titles and publishers next to each author.  On the
   normalized instance (c) that manufactures closest relationships — titles
   become closest to publishers they never shared a book with — so the guard
   is classified as widening and rejected by default.  A CAST-WIDENING
   wrapper acknowledges the loss, like a C++ cast (Sec. I).

   Run with: dune exec examples/info_loss.exe *)

let () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_c in
  let guard = Workloads.Figures.widening_guard in

  Printf.printf "Source instance (c):\n%s\n" Workloads.Figures.instance_c;
  Printf.printf "\nGuard: %s\n\n" guard;

  (* 1. Default enforcement: the guard is rejected with a precise report. *)
  (match Xmorph.Interp.transform_doc doc guard with
  | _ -> print_endline "unexpectedly admitted!"
  | exception Xmorph.Loss.Rejected report ->
      print_endline "Rejected by type enforcement:";
      print_string (Xmorph.Report.loss_to_string report));

  (* 2. The programmer reads the report, decides the duplication is fine,
     and adds a cast. *)
  let cast_guard = "CAST-WIDENING (" ^ guard ^ ")" in
  Printf.printf "\nWith %s:\n\n" cast_guard;
  let tree, compiled = Xmorph.Interp.transform_doc doc cast_guard in
  print_string (Xml.Printer.to_string_indented tree);
  Printf.printf "\nlabel-to-type report:\n%s"
    (Xmorph.Report.label_to_string compiled.Xmorph.Interp.labels);

  (* 2b. Beyond the paper's static check: measure the loss exactly.  How
     much new information did the widening manufacture? *)
  let store = Store.Shredded.shred doc in
  let measured = Xmorph.Quantify.measure store compiled.Xmorph.Interp.shape in
  Printf.printf "\nmeasured on the data:\n%s" (Xmorph.Quantify.to_string measured);

  (* 3. The other direction: a transformation that can silently discard
     data.  Authors without a name disappear when name becomes the parent. *)
  let partial =
    {|<data><author/><author><name>B</name></author></data>|}
  in
  let doc2 = Xml.Doc.of_string partial in
  let guard2 = "MUTATE name [ author ]" in
  Printf.printf "\nSource with an optional name:\n%s\nGuard: %s\n\n" partial guard2;
  (match Xmorph.Interp.transform_doc doc2 guard2 with
  | _ -> print_endline "unexpectedly admitted!"
  | exception Xmorph.Loss.Rejected report ->
      print_endline "Rejected (non-inclusive):";
      print_string (Xmorph.Report.loss_to_string report));
  (* The paper's inclusive alternative keeps nameless authors: names and
     authors both move up under data.  It loses nothing, but it is
     additive — every name is now closest to every author, not only its
     own — so it is classified widening and needs a cast of its own. *)
  let guard3 = "CAST-WIDENING (MUTATE data [ name author ])" in
  let tree3, compiled3 = Xmorph.Interp.transform_doc doc2 guard3 in
  Printf.printf "\nInclusive alternative %s, classified %s:\n%s" guard3
    (Xmorph.Report.classification_to_string
       compiled3.Xmorph.Interp.loss.Xmorph.Report.classification)
    (Xml.Printer.to_string_indented tree3)
