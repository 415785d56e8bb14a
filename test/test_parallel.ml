(* The determinism contract of the domain-parallel renderer: for any job
   count the rendered bytes AND the store's I/O accounting are exactly the
   sequential ones.  Each job count gets a fresh store — caches charge
   their reads once per store, so reusing one would hide accounting
   differences. *)

let with_jobs n f =
  let saved = Xmutil.Pool.jobs () in
  Xmutil.Pool.set_jobs n;
  Fun.protect f ~finally:(fun () -> Xmutil.Pool.set_jobs saved)

type outcome = {
  xml : string;
  bytes_read : int;
  bytes_written : int;
  read_ops : int;
  write_ops : int;
}

let render_outcome doc guard jobs =
  with_jobs jobs @@ fun () ->
  let store = Store.Shredded.shred doc in
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard
  in
  let buf = Buffer.create 1024 in
  ignore (Xmorph.Interp.render_to_buffer store compiled buf);
  let s = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  {
    xml = Buffer.contents buf;
    bytes_read = s.Store.Io_stats.bytes_read;
    bytes_written = s.Store.Io_stats.bytes_written;
    read_ops = s.Store.Io_stats.read_ops;
    write_ops = s.Store.Io_stats.write_ops;
  }

let mutate_root_guard doc =
  let store = Store.Shredded.shred doc in
  let guide = Store.Shredded.guide store in
  match Xml.Dataguide.roots guide with
  | root :: _ ->
      Some ("MUTATE " ^ Xml.Type_table.label (Store.Shredded.types store) root)
  | [] -> None

(* Large enough that the closest joins cross the parallel-partition
   threshold, so jobs=2/4 actually take the fan-out path. *)
let test_workload_identical () =
  let doc =
    Xml.Doc.of_tree (Workloads.Dblp.generate ~seed:11 ~entries:150 ())
  in
  let reference = render_outcome doc "MUTATE dblp" 1 in
  Alcotest.(check bool) "sequential output nonempty" true
    (String.length reference.xml > 0);
  List.iter
    (fun jobs ->
      let o = render_outcome doc "MUTATE dblp" jobs in
      Alcotest.(check string)
        (Printf.sprintf "bytes identical at jobs=%d" jobs)
        reference.xml o.xml;
      Alcotest.(check int)
        (Printf.sprintf "bytes_read at jobs=%d" jobs)
        reference.bytes_read o.bytes_read;
      Alcotest.(check int)
        (Printf.sprintf "bytes_written at jobs=%d" jobs)
        reference.bytes_written o.bytes_written;
      Alcotest.(check int)
        (Printf.sprintf "read_ops at jobs=%d" jobs)
        reference.read_ops o.read_ops;
      Alcotest.(check int)
        (Printf.sprintf "write_ops at jobs=%d" jobs)
        reference.write_ops o.write_ops)
    [ 2; 4 ]

let test_example_guard_identical () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
  let guard = Workloads.Figures.example_guard in
  let reference = render_outcome doc guard 1 in
  List.iter
    (fun jobs ->
      let o = render_outcome doc guard jobs in
      Alcotest.(check string)
        (Printf.sprintf "fig2 bytes at jobs=%d" jobs)
        reference.xml o.xml;
      Alcotest.(check int)
        (Printf.sprintf "fig2 bytes_read at jobs=%d" jobs)
        reference.bytes_read o.bytes_read)
    [ 2; 4 ]

let prop_parallel_equals_sequential =
  QCheck2.Test.make
    ~name:"parallel render byte- and I/O-identical on random docs" ~count:40
    Gen.gen_doc (fun doc ->
      match mutate_root_guard doc with
      | None -> true
      | Some guard ->
          let reference = render_outcome doc guard 1 in
          List.for_all
            (fun jobs ->
              let o = render_outcome doc guard jobs in
              String.equal o.xml reference.xml
              && o.bytes_read = reference.bytes_read
              && o.bytes_written = reference.bytes_written
              && o.read_ops = reference.read_ops
              && o.write_ops = reference.write_ops)
            [ 2; 4 ])

(* Store values are immutable: two domains read every node of an old
   generation while a third keeps writing newer ones. *)
let test_old_generation_under_writes () =
  let store =
    Store.Shredded.shred
      (Xml.Doc.of_tree (Workloads.Dblp.generate ~seed:11 ~entries:150 ()))
  in
  let n = Store.Shredded.node_count store in
  let values st = Array.init n (fun i -> (Store.Shredded.node st i).Store.Shredded.value) in
  let expected = values store in
  let writing = Atomic.make true in
  (* At least one full pass, then keep reading until the writer is done. *)
  let reader () =
    let rec go ok = if ok && Atomic.get writing then go (values store = expected) else ok in
    go (values store = expected)
  in
  let writer () =
    let rec go st k =
      if k = 0 then st
      else go (Store.Shredded.update_values st [ (k * 7919 mod n, string_of_int k) ]) (k - 1)
    in
    let newest = go store 2000 in
    Atomic.set writing false;
    newest
  in
  let r1 = Domain.spawn reader and r2 = Domain.spawn reader in
  let w = Domain.spawn writer in
  let newest = Domain.join w in
  Alcotest.(check bool) "first reader saw the old values" true (Domain.join r1);
  Alcotest.(check bool) "second reader saw the old values" true (Domain.join r2);
  Alcotest.(check string) "newest generation has the last write" "1"
    (Store.Shredded.node newest (7919 mod n)).Store.Shredded.value;
  Alcotest.(check bool) "old generation unchanged" true (values store = expected)

let suite =
  [
    Alcotest.test_case "dblp workload identical across job counts" `Quick
      test_workload_identical;
    Alcotest.test_case "fig2 guard identical across job counts" `Quick
      test_example_guard_identical;
    QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
    Alcotest.test_case "old generation readable during writes" `Quick
      test_old_generation_under_writes;
  ]
