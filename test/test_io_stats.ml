(* Direct coverage for the store's I/O accounting: block rounding at the
   4096-byte boundary, reset semantics, the simulated-latency model, the
   store.* gauges an execution sets from these counters, the
   allocation a request context adds to a render (previously only
   exercised indirectly through test_store.ml), and a render's own
   allocation per element written. *)

module Io = Store.Io_stats

let snap s = Io.snapshot s

let test_block_rounding () =
  let s = Io.create () in
  Alcotest.(check int) "block size" 4096 Io.block_size;
  Alcotest.(check int) "no reads, no blocks" 0 (snap s).Io.blocks_read;
  Io.charge_read s 1;
  Alcotest.(check int) "1 byte rounds up" 1 (snap s).Io.blocks_read;
  Io.charge_read s 4094;
  Alcotest.(check int) "4095 bytes is one block" 1 (snap s).Io.blocks_read;
  Io.charge_read s 1;
  Alcotest.(check int) "exactly 4096 is one block" 1 (snap s).Io.blocks_read;
  Io.charge_read s 1;
  Alcotest.(check int) "4097 spills into a second" 2 (snap s).Io.blocks_read;
  (* Blocks derive from cumulative bytes: many small reads share a page. *)
  Alcotest.(check int) "ops counted individually" 4 (snap s).Io.read_ops;
  Io.charge_write s 4096;
  Alcotest.(check int) "write boundary" 1 (snap s).Io.blocks_written;
  Io.charge_write s 1;
  Alcotest.(check int) "write spill" 2 (snap s).Io.blocks_written;
  Alcotest.(check int) "totals combine both sides" 4
    (Io.blocks_total (snap s))

let test_zero_byte_charge () =
  let s = Io.create () in
  Io.charge_read s 0;
  let sn = snap s in
  Alcotest.(check int) "zero bytes, zero blocks" 0 sn.Io.blocks_read;
  Alcotest.(check int) "the op still counts" 1 sn.Io.read_ops

let test_reset () =
  let s = Io.create () in
  Io.charge_read s 5000;
  Io.charge_write s 100;
  Io.reset s;
  let sn = snap s in
  Alcotest.(check int) "bytes_read zeroed" 0 sn.Io.bytes_read;
  Alcotest.(check int) "bytes_written zeroed" 0 sn.Io.bytes_written;
  Alcotest.(check int) "blocks zeroed" 0 (Io.blocks_total sn);
  Alcotest.(check int) "ops zeroed" 0 (sn.Io.read_ops + sn.Io.write_ops)

let test_simulated_io_monotone () =
  let s = Io.create () in
  let rng = Xmutil.Prng.create 7 in
  let last = ref (Io.simulated_io_seconds (snap s)) in
  Alcotest.(check (float 0.0)) "empty stats cost nothing" 0.0 !last;
  for _ = 1 to 200 do
    if Xmutil.Prng.bool rng then Io.charge_read s (Xmutil.Prng.int rng 10000)
    else Io.charge_write s (Xmutil.Prng.int rng 10000);
    let now = Io.simulated_io_seconds (snap s) in
    if now < !last then Alcotest.fail "simulated_io_seconds went backwards";
    last := now
  done;
  let sn = snap s in
  Alcotest.(check (float 1e-9)) "latency model: 40 us per block"
    (float_of_int (Io.blocks_total sn) *. 4.0e-5)
    (Io.simulated_io_seconds sn)

let book i =
  Printf.sprintf
    "<book><title>T%d</title><author><name>A%d</name></author>\
     <publisher><name>P%d</name></publisher></book>"
    i i i

let books n =
  let store =
    Store.Shredded.shred
      (Xml.Doc.of_string ("<data>" ^ String.concat "" (List.init n book) ^ "</data>"))
  in
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE data"
  in
  (store, compiled.Xmorph.Interp.shape)

(* An execution with a registry in its sinks sets the store's counters
   as the store.* gauges when it ends: after a render, and after an
   in-situ query, every gauge equals the snapshot. *)
let test_metrics_publication () =
  let store, _ = books 50 in
  let r = Xmobs.Metrics.create () in
  let sinks = { Xmobs.Obs.no_sinks with metrics = Some r } in
  List.iter
    (fun query ->
      ignore
        (Xmserve.Exec.execute ~sinks ~source:"test" ~enforce:false ?query store
           "MUTATE data");
      let sn = snap (Store.Shredded.stats store) in
      Alcotest.(check bool) "the execution charged reads" true (sn.Io.read_ops > 0);
      List.iter
        (fun (name, v) ->
          Alcotest.(check (float 0.0)) name (float_of_int v)
            (Xmobs.Metrics.gauge_value ~r name))
        [ ("store.bytes_read", sn.Io.bytes_read);
          ("store.bytes_written", sn.Io.bytes_written);
          ("store.blocks_read", sn.Io.blocks_read);
          ("store.blocks_written", sn.Io.blocks_written);
          ("store.read_ops", sn.Io.read_ops);
          ("store.write_ops", sn.Io.write_ops) ])
    [ None; Some "//title" ]

(* Minor words of one [Render.to_buffer] of [shape]; the store's caches
   are warm, so a render allocates the same on every call. *)
let render_words ?ctx store shape =
  let buf = Buffer.create 4096 in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Xmorph.Render.to_buffer ?ctx store shape buf));
  Gc.minor_words () -. w0

(* What a request context adds to a render, over a bare render of the
   same store: the context is handed to the render once, so the extra
   words do not grow with the document. *)
let extra_words n =
  let store, shape = books n in
  ignore (render_words store shape);
  let bare = render_words store shape in
  let traced =
    let ctx = Xmobs.Ctx.create () in
    ignore (render_words ~ctx store shape);
    render_words ~ctx store shape
  in
  (Io.snapshot (Store.Shredded.stats store)).Io.read_ops, traced -. bare

(* The emit walk allocates little beyond its output: a warm identity
   render of an XMark document into a buffer presized for its bytes
   allocates at most 6 minor words per element written (2.95 when this
   pin was set, 26.9 before the plan's edges aliased the grouped rows and
   the walk dropped its closures; docs/PERFORMANCE.md). *)
let test_emit_words_per_element () =
  let text = Xml.Printer.to_string (Workloads.Xmark.generate ~seed:3 ~factor:0.01 ()) in
  let store = Store.Shredded.shred (Xml.Doc.of_tree (Xml.Parser.parse text)) in
  let shape =
    (Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE site")
      .Xmorph.Interp.shape
  in
  let buf = Buffer.create (2 * String.length text) in
  ignore (Xmorph.Render.to_buffer store shape buf);
  Buffer.clear buf;
  let w0 = Gc.minor_words () in
  let st = Xmorph.Render.to_buffer store shape buf in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every byte went into the presized buffer" (String.length text)
    (Buffer.length buf);
  let per = words /. float_of_int st.Xmorph.Render.elements in
  if per > 6.0 then
    Alcotest.failf "the render allocated %.2f minor words per element (%d elements)" per
      st.Xmorph.Render.elements

(* A tree render allocates the tree and little else: a warm [Interp.render]
   of the same document allocates at most 13.5 minor words per element or
   attribute of its tree: 12.19 with the store's values the document's own
   strings, 14.48 when each value read copied its bytes out of one packed
   string, and 24.65 when each element went through a builder frame and
   had its child and attribute lists reversed (docs/PERFORMANCE.md). *)
let test_tree_words_per_element () =
  let text = Xml.Printer.to_string (Workloads.Xmark.generate ~seed:3 ~factor:0.01 ()) in
  let store = Store.Shredded.shred (Xml.Doc.of_tree (Xml.Parser.parse text)) in
  let compiled = Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) "MUTATE site" in
  ignore (Xmorph.Interp.render store compiled);
  let w0 = Gc.minor_words () in
  let tree = Xmorph.Interp.render store compiled in
  let words = Gc.minor_words () -. w0 in
  let buf = Buffer.create (2 * String.length text) in
  ignore (Xmorph.Interp.render_to_buffer store compiled buf);
  Alcotest.(check string) "the tree prints as the bytes render" (Buffer.contents buf)
    (Xml.Printer.to_string tree);
  let nodes = Xml.Tree.count_nodes tree in
  let per = words /. float_of_int nodes in
  if per > 13.5 then
    Alcotest.failf "the tree render allocated %.2f minor words per element (%d elements)" per
      nodes

(* Each store read a profiled [f store] charged, as (frame path, calls,
   pages read) in frame order, with the store's read counters and the
   context's. *)
let reads_of store f =
  let stats = Store.Shredded.stats store in
  Io.reset stats;
  let ctx = Xmobs.Ctx.create () in
  let (), frames = Xmobs.Ctx.profiled ~ctx (fun ctx -> f ctx) in
  let rec flat path (fr : Xmobs.Frames.frame) =
    let path = path ^ "/" ^ fr.name in
    (path, fr.calls, fr.blocks_read)
    :: List.concat_map (flat path) (Xmobs.Frames.ordered_children fr)
  in
  let sn = snap stats and io = Xmobs.Ctx.io ctx in
  ( List.concat_map (flat "") frames,
    (sn.Io.bytes_read, sn.Io.blocks_read, sn.Io.read_ops),
    (io.Xmobs.Ctx.bytes_read, io.Xmobs.Ctx.read_ops) )

(* A tree render builds a subtree in a run that several parents share
   once, and hands each of them the same tree.  DBLP's authors share
   their entry's title, so a warm [Interp.render] of [MORPH author
   [ title [ year ] ]] (seed 1, 3,000 entries) allocates at most 10.5
   minor words per element of its tree: 8.87 with the titles shared,
   13.05 when each author's title was built anew.  It prints as the
   bytes walk writes, charges the reads the bytes walk charges, in the
   same frames, and two authors of one entry hold one title. *)
let test_shared_tree_words_per_element () =
  let store = Store.Shredded.shred (Workloads.Dblp.to_doc ~seed:1 ~entries:3000 ()) in
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store)
      "MORPH author [ title [ year ] ]"
  in
  ignore (Xmorph.Interp.render store compiled);
  let w0 = Gc.minor_words () in
  let tree = Xmorph.Interp.render store compiled in
  let words = Gc.minor_words () -. w0 in
  let buf = Buffer.create (1 lsl 20) in
  ignore (Xmorph.Interp.render_to_buffer store compiled buf);
  Alcotest.(check string) "the tree prints as the bytes render" (Buffer.contents buf)
    (Xml.Printer.to_string tree);
  let tree_reads =
    reads_of store (fun ctx -> ignore (Xmorph.Interp.render ~ctx store compiled))
  in
  let bytes_reads =
    reads_of store (fun ctx ->
        ignore (Xmorph.Interp.render_to_buffer ~ctx store compiled (Buffer.create 4096)))
  in
  Alcotest.(check bool) "the tree render reads what the bytes render reads" true
    (tree_reads = bytes_reads);
  (* Adjacent authors of one entry, counted from the store: each such
     pair's two [author] elements hold one [title] tree. *)
  let tt = Store.Shredded.types store and parent = Store.Shredded.parent_column store in
  let same_entry = ref 0 in
  Xml.Type_table.iter tt (fun ty ->
      if Xml.Type_table.label tt ty = "author" then begin
        let row = Store.Shredded.sequence store ty in
        for i = 1 to Array.length row - 1 do
          if parent.(row.(i)) = parent.(row.(i - 1)) then incr same_entry
        done
      end);
  let title = function
    | Xml.Tree.Element { children; _ } ->
        List.find (fun c -> Xml.Tree.name c = "title") children
    | Xml.Tree.Text _ -> Alcotest.fail "an author is text"
  in
  let rec shared = function
    | a :: (b :: _ as rest) -> Bool.to_int (title a == title b) + shared rest
    | _ -> 0
  in
  Alcotest.(check bool) "some entry has two authors" true (!same_entry > 0);
  Alcotest.(check int) "authors of one entry share one title tree" !same_entry
    (shared (Xml.Tree.children tree));
  let nodes = Xml.Tree.count_nodes tree in
  let per = words /. float_of_int nodes in
  if per > 10.5 then
    Alcotest.failf "the tree render allocated %.2f minor words per element (%d elements)" per
      nodes

let test_context_words_flat () =
  let ops1, extra1 = extra_words 200 in
  let ops2, extra2 = extra_words 400 in
  Alcotest.(check bool) "the larger document makes more charges" true (ops2 > ops1);
  if extra2 -. extra1 > 64.0 then
    Alcotest.failf
      "a context adds %.0f words to a render of 200 books and %.0f to one \
       of 400"
      extra1 extra2

let suite =
  [
    Alcotest.test_case "block rounding at 4096" `Quick test_block_rounding;
    Alcotest.test_case "zero-byte charge" `Quick test_zero_byte_charge;
    Alcotest.test_case "reset semantics" `Quick test_reset;
    Alcotest.test_case "simulated io monotone" `Quick test_simulated_io_monotone;
    Alcotest.test_case "metrics publication" `Quick test_metrics_publication;
    Alcotest.test_case "context words flat in document size" `Quick
      test_context_words_flat;
    Alcotest.test_case "emit allocates at most 6 words per element" `Quick
      test_emit_words_per_element;
    Alcotest.test_case "tree render allocates at most 18 words per element" `Quick
      test_tree_words_per_element;
    Alcotest.test_case "a shared tree render allocates at most 10.5 words per element"
      `Quick test_shared_tree_words_per_element;
  ]
