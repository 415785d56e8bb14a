let tree_a = Xml.Parser.parse Workloads.Figures.instance_a

let test_store_and_size () =
  let ex = Baseline.Exist_sim.store tree_a in
  Alcotest.(check int) "stored size = serialized size"
    (String.length (Xml.Printer.to_string tree_a))
    (Baseline.Exist_sim.size_bytes ex)

let test_dump () =
  let ex = Baseline.Exist_sim.store tree_a in
  let buf = Buffer.create 256 in
  let written = Baseline.Exist_sim.dump ex buf in
  Alcotest.(check int) "written bytes" (Buffer.length buf) written;
  let wrapped = Xml.Parser.parse (Buffer.contents buf) in
  (match wrapped with
  | Xml.Tree.Element { name = "data"; children = [ inner ]; _ } ->
      Alcotest.(check bool) "document preserved" true (Xml.Tree.equal inner tree_a)
  | _ -> Alcotest.fail "expected <data> wrapper")

let test_dump_io_charges () =
  let ex = Baseline.Exist_sim.store tree_a in
  let s0 = Store.Io_stats.snapshot (Baseline.Exist_sim.stats ex) in
  let buf = Buffer.create 256 in
  ignore (Baseline.Exist_sim.dump ex buf);
  let s1 = Store.Io_stats.snapshot (Baseline.Exist_sim.stats ex) in
  Alcotest.(check int) "read the whole document"
    (Baseline.Exist_sim.size_bytes ex)
    (s1.Store.Io_stats.bytes_read - s0.Store.Io_stats.bytes_read);
  Alcotest.(check bool) "wrote the result" true
    (s1.Store.Io_stats.bytes_written > s0.Store.Io_stats.bytes_written)

let test_query () =
  let ex = Baseline.Exist_sim.store tree_a in
  let titles = Baseline.Exist_sim.query ex "/data/book/title/text()" in
  Alcotest.(check (list string)) "titles" [ "X"; "Y" ]
    (List.map Xquery.Value.string_value titles)

let test_query_to_buffer () =
  let ex = Baseline.Exist_sim.store tree_a in
  let buf = Buffer.create 64 in
  let n = Baseline.Exist_sim.query_to_buffer ex "/data/book/title" buf in
  Alcotest.(check int) "bytes" (Buffer.length buf) n;
  Alcotest.(check string) "serialized" "<title>X</title><title>Y</title>"
    (Buffer.contents buf)

(* A dump and a query each charge the request context handed to them.
   The store.* gauges are the execution path's to set, as for the
   physical store the baseline is compared with: after an execution with
   a registry in its sinks, they equal that store's counters. *)
let test_operations_publish () =
  let ex = Baseline.Exist_sim.store tree_a in
  let stats = Baseline.Exist_sim.stats ex in
  let s0 = Store.Io_stats.snapshot stats in
  let ctx = Xmobs.Ctx.create () in
  ignore (Baseline.Exist_sim.dump ~ctx ex (Buffer.create 256));
  ignore
    (Baseline.Exist_sim.query_to_buffer ~ctx ex "/data/book/title"
       (Buffer.create 64));
  let s1 = Store.Io_stats.snapshot stats in
  let io = Xmobs.Ctx.io ctx in
  Alcotest.(check (list int)) "the context got the operations' I/O"
    [ s1.Store.Io_stats.bytes_read - s0.Store.Io_stats.bytes_read;
      s1.Store.Io_stats.bytes_written - s0.Store.Io_stats.bytes_written;
      s1.Store.Io_stats.read_ops - s0.Store.Io_stats.read_ops;
      s1.Store.Io_stats.write_ops - s0.Store.Io_stats.write_ops ]
    [ io.Xmobs.Ctx.bytes_read; io.bytes_written; io.read_ops; io.write_ops ];
  let store = Store.Shredded.shred (Xml.Doc.of_tree tree_a) in
  let r = Xmobs.Metrics.create () in
  ignore
    (Xmserve.Exec.execute
       ~sinks:{ Xmobs.Obs.no_sinks with metrics = Some r }
       ~source:"test" ~query:"/data/book/title" store "MUTATE data");
  let sn = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 0.0)) name (float_of_int v)
        (Xmobs.Metrics.gauge_value ~r name))
    [ ("store.bytes_read", sn.Store.Io_stats.bytes_read);
      ("store.bytes_written", sn.Store.Io_stats.bytes_written);
      ("store.read_ops", sn.Store.Io_stats.read_ops);
      ("store.write_ops", sn.Store.Io_stats.write_ops) ]

let suite =
  [
    Alcotest.test_case "store size" `Quick test_store_and_size;
    Alcotest.test_case "dump query" `Quick test_dump;
    Alcotest.test_case "dump IO charges" `Quick test_dump_io_charges;
    Alcotest.test_case "path query" `Quick test_query;
    Alcotest.test_case "query to buffer" `Quick test_query_to_buffer;
    Alcotest.test_case "operations charge the context and publish" `Quick
      test_operations_publish;
  ]
