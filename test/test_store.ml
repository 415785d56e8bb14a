let test_codec_roundtrip_basic () =
  let b = Buffer.create 64 in
  Store.Codec.add_uint b 0;
  Store.Codec.add_uint b 127;
  Store.Codec.add_uint b 128;
  Store.Codec.add_uint b 300000;
  Store.Codec.add_int b (-1);
  Store.Codec.add_int b 0;
  Store.Codec.add_int b 123456;
  Store.Codec.add_int b (-987654);
  Store.Codec.add_string b "hello";
  Store.Codec.add_string b "";
  Store.Codec.add_int_array b [| 1; -2; 3 |];
  let c = Store.Codec.cursor (Buffer.contents b) in
  Alcotest.(check int) "u0" 0 (Store.Codec.read_uint c);
  Alcotest.(check int) "u127" 127 (Store.Codec.read_uint c);
  Alcotest.(check int) "u128" 128 (Store.Codec.read_uint c);
  Alcotest.(check int) "u300000" 300000 (Store.Codec.read_uint c);
  Alcotest.(check int) "i-1" (-1) (Store.Codec.read_int c);
  Alcotest.(check int) "i0" 0 (Store.Codec.read_int c);
  Alcotest.(check int) "i123456" 123456 (Store.Codec.read_int c);
  Alcotest.(check int) "i-987654" (-987654) (Store.Codec.read_int c);
  Alcotest.(check string) "hello" "hello" (Store.Codec.read_string c);
  Alcotest.(check string) "empty" "" (Store.Codec.read_string c);
  Alcotest.(check (array int)) "array" [| 1; -2; 3 |] (Store.Codec.read_int_array c)

let test_codec_corrupt () =
  let check_corrupt data f =
    match f (Store.Codec.cursor data) with
    | exception Store.Codec.Corrupt _ -> ()
    | _ -> Alcotest.fail "expected Corrupt"
  in
  check_corrupt "" Store.Codec.read_uint;
  check_corrupt "\x80" Store.Codec.read_uint;
  check_corrupt "\x05ab" Store.Codec.read_string

let prop_codec_ints =
  QCheck2.Test.make ~name:"codec int roundtrip" ~count:500
    QCheck2.Gen.(list int)
    (fun xs ->
      let b = Buffer.create 64 in
      List.iter (Store.Codec.add_int b) xs;
      let c = Store.Codec.cursor (Buffer.contents b) in
      List.for_all (fun x -> Store.Codec.read_int c = x) xs)

let prop_codec_strings =
  QCheck2.Test.make ~name:"codec string roundtrip" ~count:300
    QCheck2.Gen.(list string)
    (fun xs ->
      let b = Buffer.create 64 in
      List.iter (Store.Codec.add_string b) xs;
      let c = Store.Codec.cursor (Buffer.contents b) in
      List.for_all (fun x -> Store.Codec.read_string c = x) xs)

let prop_codec_sizes =
  let encoded add x =
    let b = Buffer.create 16 in
    add b x;
    Buffer.length b
  in
  let gen_int =
    QCheck2.Gen.(
      oneof
        [ int; small_signed_int;
          oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 63; -64; -65; 127; 128 ] ])
  in
  QCheck2.Test.make ~name:"codec sizes = encoded lengths" ~count:500
    QCheck2.Gen.(pair gen_int (array_size (int_range 0 8) gen_int))
    (fun (n, a) ->
      Store.Codec.int_size n = encoded Store.Codec.add_int n
      && Store.Codec.uint_size (n land max_int) = encoded Store.Codec.add_uint (n land max_int)
      && Store.Codec.int_array_size a = encoded Store.Codec.add_int_array a)

let test_io_stats () =
  let s = Store.Io_stats.create () in
  Store.Io_stats.charge_read s 100;
  Store.Io_stats.charge_read s 5000;
  Store.Io_stats.charge_write s 4096;
  let snap = Store.Io_stats.snapshot s in
  Alcotest.(check int) "bytes read" 5100 snap.Store.Io_stats.bytes_read;
  Alcotest.(check int) "blocks read (cumulative bytes)" 2 snap.Store.Io_stats.blocks_read;
  Alcotest.(check int) "bytes written" 4096 snap.Store.Io_stats.bytes_written;
  Alcotest.(check int) "blocks written" 1 snap.Store.Io_stats.blocks_written;
  Alcotest.(check int) "ops" 2 snap.Store.Io_stats.read_ops;
  Store.Io_stats.reset s;
  Alcotest.(check int) "reset" 0 (Store.Io_stats.snapshot s).Store.Io_stats.bytes_read

let shred_fig_a () = Store.Shredded.shred (Xml.Doc.of_string Workloads.Figures.instance_a)

let test_shred_basics () =
  let st = shred_fig_a () in
  Alcotest.(check int) "node count" 15 (Store.Shredded.node_count st);
  Alcotest.(check bool) "data bytes > 0" true (Store.Shredded.data_bytes st > 0)

let test_node_access_charges_io () =
  let st = shred_fig_a () in
  let before = (Store.Io_stats.snapshot (Store.Shredded.stats st)).Store.Io_stats.read_ops in
  let n = Store.Shredded.node st 0 in
  Alcotest.(check string) "root record" "data" n.Store.Shredded.name;
  let after = (Store.Io_stats.snapshot (Store.Shredded.stats st)).Store.Io_stats.read_ops in
  Alcotest.(check int) "one read op charged" (before + 1) after

let test_node_record_contents () =
  let st = shred_fig_a () in
  let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
  for i = 0 to Store.Shredded.node_count st - 1 do
    let r = Store.Shredded.node st i in
    let n = Xml.Doc.node doc i in
    Alcotest.(check string) "name" n.Xml.Doc.name r.Store.Shredded.name;
    Alcotest.(check string) "value" n.Xml.Doc.value r.Store.Shredded.value;
    Alcotest.(check int) "parent" n.Xml.Doc.parent r.Store.Shredded.parent;
    Alcotest.(check bool) "dewey" true
      (Xmutil.Dewey.equal n.Xml.Doc.dewey r.Store.Shredded.dewey)
  done

let test_sequences () =
  let st = shred_fig_a () in
  let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
  let guide = Store.Shredded.guide st in
  List.iter
    (fun ty ->
      Alcotest.(check (array int)) "sequence matches doc"
        (Xml.Doc.nodes_of_type doc ty)
        (Store.Shredded.sequence st ty))
    (Xml.Dataguide.all_types guide);
  Alcotest.(check (array int)) "unknown type empty" [||] (Store.Shredded.sequence st 999)

let test_save_load () =
  let st = shred_fig_a () in
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save st path;
  let st2 = Store.Shredded.load path in
  Sys.remove path;
  Alcotest.(check int) "node count" (Store.Shredded.node_count st)
    (Store.Shredded.node_count st2);
  for i = 0 to Store.Shredded.node_count st - 1 do
    let a = Store.Shredded.node st i and b = Store.Shredded.node st2 i in
    Alcotest.(check string) "name" a.Store.Shredded.name b.Store.Shredded.name;
    Alcotest.(check string) "value" a.Store.Shredded.value b.Store.Shredded.value
  done;
  let g1 = Store.Shredded.guide st and g2 = Store.Shredded.guide st2 in
  List.iter
    (fun ty ->
      Alcotest.(check string) "card"
        (Xmutil.Card.to_string (Xml.Dataguide.card g1 ty))
        (Xmutil.Card.to_string (Xml.Dataguide.card g2 ty));
      Alcotest.(check (array int)) "seq" (Store.Shredded.sequence st ty)
        (Store.Shredded.sequence st2 ty))
    (Xml.Dataguide.all_types g1)

let test_load_corrupt () =
  let path = Filename.temp_file "xmorph" ".store" in
  let oc = open_out path in
  output_string oc "not a store";
  close_out oc;
  (match Store.Shredded.load path with
  | exception Store.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  Sys.remove path

(* [load] refuses a record unless it is what [save] writes for its type
   and its place, and sequence rows and Dewey columns that disagree with
   the records:
   each case rewrites a few bytes of a saved two-node store (root [a],
   then [b] with value "qqqq"). *)
let test_load_refuses_bad_records () =
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save (Store.Shredded.shred (Xml.Doc.of_string "<a><b>qqqq</b></a>")) path;
  let saved = In_channel.with_open_bin path In_channel.input_all in
  (* Each rewrite replaces the first occurrence of [from], in order. *)
  let refusal rewrites =
    let rewrite saved (from, into) =
      let rec find i =
        if String.sub saved i (String.length from) = from then i else find (i + 1)
      in
      let i = find 0 and n = String.length from in
      String.sub saved 0 i ^ into ^ String.sub saved (i + n) (String.length saved - i - n)
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (List.fold_left rewrite saved rewrites));
    match Store.Shredded.load path with
    | exception Store.Codec.Corrupt m -> m
    | _ -> "loaded"
  in
  let check what expected ~from ~into =
    Alcotest.(check string) what expected (refusal [ (from, into) ])
  in
  check "kind of another type" "bad node kind" ~from:"E\001b" ~into:"A\001b";
  check "name of another type" "bad node name" ~from:"E\001b" ~into:"E\001c";
  check "type out of range" "bad node type" ~from:"E\001b\001" ~into:"E\001b\005";
  check "parent out of range" "bad node parent" ~from:"E\001b\001\000"
    ~into:"E\001b\001\010";
  check "record overruns the next" "bad node offset" ~from:"E\001a\000\001\000"
    ~into:"E\001a\000\001\001";
  check "bytes after the last record" "bad node offset" ~from:"\004qqqq" ~into:"\003qqqq";
  (* b's TypeToSequence row [1], its Dewey column length and [1.1]. *)
  check "sequence id out of range" "bad sequence" ~from:"\001\002\001\002\002\002"
    ~into:"\001\040\001\002\002\002";
  check "sequence id of another type" "bad sequence" ~from:"\001\002\001\002\002\002"
    ~into:"\001\000\001\002\002\002";
  check "Dewey column entry not its node's" "bad sequence"
    ~from:"\001\002\001\002\002\002" ~into:"\001\002\001\002\002\004";
  (* b's sidecar entry and its record both say [1.2]: they agree, but the
     parent column makes b its parent's first child, [1.1]. *)
  Alcotest.(check string) "Dewey number the parent column contradicts" "bad node dewey"
    (refusal
       [ ("\001\002\001\002\002\002", "\001\002\001\002\002\004");
         ("\002\002\002E\001b", "\002\002\004E\001b") ]);
  check "unchanged" "loaded" ~from:"qqqq" ~into:"qqqq";
  Sys.remove path

let prop_shred_preserves =
  QCheck2.Test.make ~name:"shred preserves records for random docs" ~count:100
    Gen.gen_doc (fun doc ->
      let st = Store.Shredded.shred doc in
      let ok = ref (Store.Shredded.node_count st = Xml.Doc.node_count doc) in
      for i = 0 to Xml.Doc.node_count doc - 1 do
        let r = Store.Shredded.node st i in
        let n = Xml.Doc.node doc i in
        if r.Store.Shredded.name <> n.Xml.Doc.name
           || r.Store.Shredded.value <> n.Xml.Doc.value
           || r.Store.Shredded.type_id <> n.Xml.Doc.type_id
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip_basic;
    Alcotest.test_case "codec rejects corrupt input" `Quick test_codec_corrupt;
    QCheck_alcotest.to_alcotest prop_codec_ints;
    QCheck_alcotest.to_alcotest prop_codec_strings;
    QCheck_alcotest.to_alcotest prop_codec_sizes;
    Alcotest.test_case "io stats accounting" `Quick test_io_stats;
    Alcotest.test_case "shred basics" `Quick test_shred_basics;
    Alcotest.test_case "node access charges IO" `Quick test_node_access_charges_io;
    Alcotest.test_case "node records faithful" `Quick test_node_record_contents;
    Alcotest.test_case "TypeToSequence rows" `Quick test_sequences;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load;
    Alcotest.test_case "load rejects corrupt file" `Quick test_load_corrupt;
    QCheck_alcotest.to_alcotest prop_shred_preserves;
  ]

(* A GroupedSequence row as [start, stop)] pairs. *)
let spans (r : Xmutil.Closest.runs) =
  Array.init (Array.length r.keys) (fun g -> (r.offs.(g), r.offs.(g + 1)))

let test_grouped_sequence () =
  let st = shred_fig_a () in
  let guide = Store.Shredded.guide st in
  let title = List.hd (Xml.Dataguide.match_label guide "title") in
  (* Titles 1.1.1 and 1.2.1: at level 1 one run, at level 2 two runs. *)
  Alcotest.(check (array (pair int int))) "level 1" [| (0, 2) |]
    (spans (Store.Shredded.grouped_sequence st title ~level:1));
  Alcotest.(check (array (pair int int))) "level 2" [| (0, 1); (1, 2) |]
    (spans (Store.Shredded.grouped_sequence st title ~level:2));
  (* Cached second call returns the same array. *)
  Alcotest.(check (array (pair int int))) "cached" [| (0, 1); (1, 2) |]
    (spans (Store.Shredded.grouped_sequence st title ~level:2));
  Alcotest.(check (array (pair int int))) "unknown type" [||]
    (spans (Store.Shredded.grouped_sequence st 999 ~level:1))

let prop_grouped_sequence_partitions =
  QCheck2.Test.make ~name:"grouped sequence partitions the row" ~count:100
    Gen.gen_doc (fun doc ->
      let st = Store.Shredded.shred doc in
      let guide = Store.Shredded.guide st in
      List.for_all
        (fun ty ->
          let seq = Store.Shredded.sequence st ty in
          let depth =
            Xml.Type_table.depth (Store.Shredded.types st) ty
          in
          List.for_all
            (fun level ->
              let groups = spans (Store.Shredded.grouped_sequence st ty ~level) in
              (* Contiguous cover of the whole sequence... *)
              let covered =
                Array.to_list groups
                |> List.fold_left
                     (fun acc (s, e) ->
                       match acc with
                       | Some pos when pos = s && e > s -> Some e
                       | _ -> None)
                     (Some 0)
              in
              covered = Some (Array.length seq)
              (* ...and within each run all prefixes agree. *)
              && Array.for_all
                   (fun (s, e) ->
                     let d0 =
                       (Store.Shredded.node st seq.(s)).Store.Shredded.dewey
                     in
                     let p0 = Array.sub d0 0 level in
                     let ok = ref true in
                     for i = s to e - 1 do
                       let d =
                         (Store.Shredded.node st seq.(i)).Store.Shredded.dewey
                       in
                       if Array.sub d 0 level <> p0 then ok := false
                     done;
                     !ok)
                   groups)
            (List.init depth (fun i -> i + 1)))
        (Xml.Dataguide.all_types guide))

(* The Dewey sidecar and the records' Dewey numbers as a saved file holds
   them. *)
let saved_deweys path =
  let module C = Store.Codec in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let c = C.cursor ~pos:(String.length "XMORPH-STORE-2\n") data in
  let ntypes = C.read_uint c in
  for _ = 1 to ntypes do
    ignore (C.read_int c);
    ignore (C.read_string c)
  done;
  ignore (C.read_int_array c);
  for _ = 1 to ntypes do
    ignore (C.read_uint c);
    ignore (C.read_int c);
    ignore (C.read_uint c)
  done;
  for _ = 1 to ntypes do
    ignore (C.read_int_array c)
  done;
  let sidecar =
    Array.init ntypes (fun _ -> Array.init (C.read_uint c) (fun _ -> C.read_int_array c))
  in
  let n = C.read_uint c in
  ignore (C.read_int_array c);
  let b = C.cursor (C.read_string c) in
  let records =
    Array.init n (fun _ ->
        let d = C.read_int_array b in
        b.pos <- b.pos + 1;
        ignore (C.read_string b);
        ignore (C.read_uint b);
        ignore (C.read_int b);
        ignore (C.read_string b);
        d)
  in
  (sidecar, records)

(* The Dewey columns a store saves, derived from its rank and parent
   columns, are aligned with the sequence rows and hold each node's Dewey
   number, the one its record holds and the document gives. *)
let test_dewey_columns () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
  let st = Store.Shredded.shred doc in
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save st path;
  let sidecar, records = saved_deweys path in
  Sys.remove path;
  let guide = Store.Shredded.guide st in
  List.iter
    (fun ty ->
      let seq = Store.Shredded.sequence st ty in
      let col = sidecar.(ty) in
      Alcotest.(check int) "column aligned with sequence" (Array.length seq)
        (Array.length col);
      Array.iteri
        (fun i id ->
          Alcotest.(check bool) "column matches record dewey" true
            (Xmutil.Dewey.equal col.(i) records.(id)
            && Xmutil.Dewey.equal col.(i) (Xml.Doc.dewey doc id)
            && Xmutil.Dewey.equal col.(i) (Store.Shredded.node st id).Store.Shredded.dewey))
        seq)
    (Xml.Dataguide.all_types guide);
  let stats = Store.Shredded.stats st in
  Store.Io_stats.reset stats;
  Store.Shredded.charge_join_column st 999;
  Alcotest.(check int) "unknown type charges nothing" 0
    (Store.Io_stats.snapshot stats).Store.Io_stats.bytes_read

let test_dewey_column_charges_less () =
  (* The point of the sidecar: join-side reads cost a fraction of decoding
     the full records. *)
  let st = shred_fig_a () in
  let stats = Store.Shredded.stats st in
  let guide = Store.Shredded.guide st in
  let ty = List.hd (Xml.Dataguide.match_label guide "book") in
  let bytes_of f =
    Store.Io_stats.reset stats;
    f ();
    (Store.Io_stats.snapshot stats).Store.Io_stats.bytes_read
  in
  let col_bytes = bytes_of (fun () -> Store.Shredded.charge_join_column st ty) in
  let rec_bytes =
    bytes_of (fun () ->
        Array.iter
          (fun id -> ignore (Store.Shredded.node st id))
          (Store.Shredded.sequence st ty))
  in
  Store.Io_stats.reset stats;
  Alcotest.(check bool) "column read is charged" true (col_bytes > 0);
  Alcotest.(check bool) "column cheaper than records" true (col_bytes < rec_bytes)

(* Store format 1 is retired: a file with its magic is still known as a
   store, so the CLI does not parse it as XML, but [load] refuses it. *)
let test_format_1_refused () =
  let path = Filename.temp_file "xmorph" ".store" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "XMORPH-STORE-1\n\000\000");
  let known = Store.Shredded.is_store path in
  let refused =
    match Store.Shredded.load path with
    | exception Store.Codec.Corrupt "bad magic" -> true
    | _ -> false
  in
  Sys.remove path;
  Alcotest.(check bool) "known as a store" true known;
  Alcotest.(check bool) "load refuses it" true refused

(* Value updates do not touch Dewey numbers: the columnar sidecar and the
   grouped-run cache are shared with the original store, so runs built
   through either store, the updated node's own type included, are read
   from the shared cache at no charge. *)
let test_update_value_keeps_columns () =
  let st = shred_fig_a () in
  let guide = Store.Shredded.guide st in
  let title = List.hd (Xml.Dataguide.match_label guide "title") in
  let name = List.hd (Xml.Dataguide.match_label guide "name") in
  let title_id = (Store.Shredded.sequence st title).(0) in
  (* Warm the grouped-run caches on the original store. *)
  let title_runs = Store.Shredded.grouped_sequence st title ~level:1 in
  ignore (Store.Shredded.grouped_sequence st name ~level:1);
  let st2 = Store.Shredded.update_value st title_id "Xv2" in
  Alcotest.(check string) "value updated" "Xv2"
    (Store.Shredded.node st2 title_id).Store.Shredded.value;
  (* Columns are physically shared — no rebuild, same arrays. *)
  Alcotest.(check bool) "parent column shared" true
    (Store.Shredded.parent_column st == Store.Shredded.parent_column st2);
  (* Both types keep their cached runs, the updated node's own type too:
     re-reading charges nothing and returns the same rows. *)
  let stats = Store.Shredded.stats st2 in
  Store.Io_stats.reset stats;
  ignore (Store.Shredded.grouped_sequence st2 name ~level:1);
  Alcotest.(check bool) "same-type runs shared" true
    (Store.Shredded.grouped_sequence st2 title ~level:1 == title_runs);
  Alcotest.(check int) "cached runs charge nothing" 0
    (Store.Io_stats.snapshot stats).Store.Io_stats.bytes_read;
  (* Runs first built through the updated store serve the original. *)
  let level2 = Store.Shredded.grouped_sequence st2 title ~level:2 in
  Alcotest.(check bool) "first build charges" true
    ((Store.Io_stats.snapshot stats).Store.Io_stats.bytes_read > 0);
  Store.Io_stats.reset stats;
  Alcotest.(check bool) "built once for both" true
    (Store.Shredded.grouped_sequence st title ~level:2 == level2);
  Alcotest.(check int) "no second build" 0
    (Store.Io_stats.snapshot stats).Store.Io_stats.bytes_read

let suite =
  suite
  @ [
      Alcotest.test_case "GroupedSequence rows" `Quick test_grouped_sequence;
      QCheck_alcotest.to_alcotest prop_grouped_sequence_partitions;
      Alcotest.test_case "Dewey columns aligned and faithful" `Quick
        test_dewey_columns;
      Alcotest.test_case "Dewey column charges less than records" `Quick
        test_dewey_column_charges_less;
      Alcotest.test_case "store format 1 refused" `Quick test_format_1_refused;
      Alcotest.test_case "update_value shares columns and grouped runs" `Quick
        test_update_value_keeps_columns;
    ]

(* Store bytes are pinned: the digest of [save]'s output for fixed-seed
   workload documents, each ingested from its serialized text (parse ->
   index -> shred).  Any ingest change that moves one byte fails here. *)
let saved_digest store =
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save store path;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Digest.to_hex (Digest.string bytes)

let ingest tree =
  Store.Shredded.shred (Xml.Doc.of_string (Xml.Printer.to_string tree))

let test_store_bytes_pinned () =
  let check name expected store =
    Alcotest.(check string) name expected (saved_digest store)
  in
  check "xmark" "8d1cb8c3913aee69bde70f00ad672d1c"
    (ingest (Workloads.Xmark.generate ~seed:11 ~factor:0.002 ()));
  check "dblp" "4227894d384dc1d775afe83b570e01b8"
    (ingest (Workloads.Dblp.generate ~seed:12 ~entries:150 ()));
  check "nasa" "bf3f6c161d0cc27f29f43ce6df92d39c"
    (ingest (Workloads.Nasa.generate ~seed:13 ~datasets:20 ()));
  (* Mixed content, references, CDATA, comments and attributes, over a
     two-document collection. *)
  let parse = Xml.Parser.parse in
  check "collection" "8db63964244181a5e16051674f4970d6"
    (Store.Shredded.shred
       (Xml.Doc.of_forest
          [ parse {|<r k="a&amp;b"><!-- c --><a x='1'>one<b/>two<![CDATA[<3>]]></a><a>&#233;&lt;</a></r>|};
            parse "<r>\n  <a y=\"2\">  x  </a>\n  <?pi?><c/>\n</r>" ]))

let suite =
  suite
  @ [ Alcotest.test_case "saved store bytes pinned" `Quick test_store_bytes_pinned ]

(* Store bytes after value updates are pinned too: a fixed update sequence
   on fixed-seed XMark and DBLP stores, then the digest of [save]'s output,
   [data_bytes], and the bytes the writes and a full [node] scan charge.
   The sequence rewrites one id repeatedly, writes an empty value, moves a
   value's length across the one-/two-byte varint boundary (127/128) in
   both directions, and writes an attribute node. *)
let update_sequence store =
  let n = Store.Shredded.node_count store in
  let attr =
    let rec find i =
      if i >= n then Alcotest.fail "no attribute node"
      else if (Store.Shredded.node store i).Store.Shredded.kind = Xml.Doc.Attribute
      then i
      else find (i + 1)
    in
    find 0
  in
  let a = n / 3 and b = n / 2 and last = n - 1 in
  [ (a, String.make 127 'x'); (a, String.make 128 'y'); (a, String.make 127 'z');
    (b, ""); (b, "short"); (attr, "attribute value"); (last, String.make 200 'w');
    (last, "v"); (0, "root text"); (a, "final") ]

let io_delta store f =
  let stats = Store.Shredded.stats store in
  let before = Store.Io_stats.snapshot stats in
  let result = f () in
  let d = Store.Io_stats.diff (Store.Io_stats.snapshot stats) before in
  (result, [ d.Store.Io_stats.bytes_read; d.Store.Io_stats.bytes_written ])

let test_updated_store_bytes_pinned () =
  let check name store ~digest ~data_bytes ~writes ~scan =
    let updates = update_sequence store in
    let updated, write_io =
      io_delta store (fun () ->
          List.fold_left
            (fun st (id, v) -> Store.Shredded.update_value st id v)
            store updates)
    in
    let count = Store.Shredded.node_count updated in
    let records, scan_io =
      io_delta updated (fun () -> List.init count (Store.Shredded.node updated))
    in
    (* The value-only read returns the record's value and charges the
       whole record, overlaid nodes included. *)
    let values, value_io =
      io_delta updated (fun () -> List.init count (Store.Shredded.value updated))
    in
    Alcotest.(check string) (name ^ " digest") digest (saved_digest updated);
    Alcotest.(check int) (name ^ " data_bytes") data_bytes
      (Store.Shredded.data_bytes updated);
    Alcotest.(check (list int)) (name ^ " write charges") writes write_io;
    Alcotest.(check (list int)) (name ^ " scan charges") scan scan_io;
    Alcotest.(check (list string)) (name ^ " values")
      (List.map (fun (r : Store.Shredded.node) -> r.value) records)
      values;
    Alcotest.(check (list int)) (name ^ " value-scan charges") scan value_io
  in
  check "xmark"
    (ingest (Workloads.Xmark.generate ~seed:11 ~factor:0.002 ()))
    ~digest:"8a5bdf4aa3f81eb82013aaf013dd1505" ~data_bytes:70001
    ~writes:[ 0; 819 ] ~scan:[ 70001; 0 ];
  check "dblp"
    (ingest (Workloads.Dblp.generate ~seed:12 ~entries:150 ()))
    ~digest:"77ec12496caa662050388e5a9e3aa95c" ~data_bytes:52944
    ~writes:[ 0; 764 ] ~scan:[ 52944; 0 ]

let suite =
  suite
  @ [ Alcotest.test_case "updated store bytes pinned" `Quick
        test_updated_store_bytes_pinned ]

(* Value updates are functional: over random batches, every store value
   keeps reading its own values after newer writes, [save] -> [load]
   round-trips the newest, and a batch naming a missing node raises with no
   effect. *)
let gen_batches =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (list_size (int_range 0 6)
         (pair nat
            (oneof [ string_size (int_range 0 3); string_size (int_range 120 140) ]))))

let values_of store =
  Array.init (Store.Shredded.node_count store) (fun i ->
      (Store.Shredded.node store i).Store.Shredded.value)

let prop_updates_functional =
  QCheck2.Test.make ~name:"value updates are functional" ~count:100
    QCheck2.Gen.(pair Gen.gen_doc gen_batches)
    (fun (doc, batches) ->
      let store = Store.Shredded.shred doc in
      let n = Store.Shredded.node_count store in
      (* Each store value paired with the values it must read. *)
      let history =
        List.fold_left
          (fun history batch ->
            let st, model = List.hd history in
            let batch = List.map (fun (id, v) -> (id mod n, v)) batch in
            let model = Array.copy model in
            List.iter (fun (id, v) -> model.(id) <- v) batch;
            (Store.Shredded.update_values st batch, model) :: history)
          [ (store, values_of store) ]
          batches
      in
      let newest = fst (List.hd history) in
      let reads_own = List.for_all (fun (st, model) -> values_of st = model) history in
      let path = Filename.temp_file "xmorph" ".store" in
      Store.Shredded.save newest path;
      let loaded = Store.Shredded.load path in
      Sys.remove path;
      let round_trip =
        values_of loaded = values_of newest
        && Store.Shredded.data_bytes loaded = Store.Shredded.data_bytes newest
        && saved_digest loaded = saved_digest newest
      in
      let rejects bad =
        let before = values_of newest in
        let generation = Store.Shredded.generation newest in
        let written () =
          (Store.Io_stats.snapshot (Store.Shredded.stats newest)).Store.Io_stats.bytes_written
        in
        let w0 = written () in
        (match Store.Shredded.update_values newest [ (0, "ok"); (bad, "bad") ] with
        | exception Invalid_argument _ -> true
        | _ -> false)
        && Store.Shredded.generation newest = generation
        && values_of newest = before
        && written () = w0
      in
      reads_own && round_trip && rejects (-1) && rejects n)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_updates_functional ]

(* The save-byte pin over the twenty fixed-seed generated trees, each
   shredded as its own store. *)
let test_fuzz_store_bytes_pinned () =
  Alcotest.(check string) "fuzz" "c982c7d64caa8586121c9b4570c8e140"
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map
                (fun t -> saved_digest (Store.Shredded.shred (Xml.Doc.of_tree t)))
                Gen.fixed_trees))))

let suite =
  suite
  @ [ Alcotest.test_case "saved store bytes pinned over generated trees" `Quick
        test_fuzz_store_bytes_pinned ]

(* Ingest allocates a bounded number of words per node: indexing and
   shredding a fixed XMark document measured 9.6 words per node on 64-bit
   OCaml 5 with the store's value column the document's own strings (11.8
   when shredding packed every value into one string; 21.9 when it
   encoded a record blob; 36.6 with the per-node records and children
   arrays of an earlier index); the bound leaves headroom for runtime
   differences. *)
let test_ingest_allocation () =
  let tree = Xml.Parser.parse (Xml.Printer.to_string (Workloads.Xmark.generate ~seed:11 ~factor:0.01 ())) in
  let words_per_node () =
    let before = Gc.allocated_bytes () in
    let doc = Xml.Doc.of_tree tree in
    ignore (Sys.opaque_identity (Store.Shredded.shred doc));
    (Gc.allocated_bytes () -. before)
    /. float (Sys.word_size / 8)
    /. float (Xml.Doc.node_count doc)
  in
  ignore (words_per_node ());
  let w = words_per_node () in
  if w > 23. then Alcotest.failf "ingest allocated %.1f words per node (bound 23)" w

let suite =
  suite @ [ Alcotest.test_case "ingest allocation per node bounded" `Quick test_ingest_allocation ]

(* Minor words allocated per node by the parser, the index and the
   shredder, counts that code placement cannot move.  On XMark seed 3
   factor 0.01 (12,467 nodes, 64-bit OCaml 5) this test read 9.25 words
   per node for the index while it built a Dewey array per node and a pair
   of child-type tables per type, and 1.73 for the shredder while it built
   per-type Dewey columns; they now read 2.18 and 0.40.  The parser read
   18.37 while it copied every name it read and every byte of text twice;
   it now reads 11.64 (docs/PERFORMANCE.md). *)
let test_minor_words_per_node () =
  let src = Xml.Printer.to_string (Workloads.Xmark.generate ~seed:3 ~factor:0.01 ()) in
  let minor_words f =
    let before = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. before, r)
  in
  let measure () =
    let parse, tree = minor_words (fun () -> Xml.Parser.parse src) in
    let index, doc = minor_words (fun () -> Xml.Doc.of_tree tree) in
    let shred, store = minor_words (fun () -> Store.Shredded.shred doc) in
    ignore (Sys.opaque_identity store);
    let n = float (Xml.Doc.node_count doc) in
    (parse /. n, index /. n, shred /. n)
  in
  ignore (measure ());
  let parse, index, shred = measure () in
  Printf.printf "minor words per node: parse %.2f, index %.2f, shred %.2f\n" parse index
    shred;
  if parse > 13.5 then
    Alcotest.failf "the parser allocated %.2f minor words per node (bound 13.5)" parse;
  if index > 2.5 then Alcotest.failf "the index allocated %.2f minor words per node (bound 2.5)" index;
  if shred > 0.69 then
    Alcotest.failf "the shredder allocated %.2f minor words per node (bound 0.69)" shred

let suite =
  suite
  @ [ Alcotest.test_case "index and shred minor words per node bounded" `Quick
        test_minor_words_per_node ]

(* The record charges and the file format agree: over the twenty fixed-seed
   trees and random value batches (lengths across the 127/128 varint
   boundary, attribute nodes among the targets), every store value charges
   each node's [value] read at the length of that node's record in the blob
   [save] writes, its [data_bytes] is that blob's length, and [load] of
   what it saved reads back every [node] field and [value]. *)
let saved_nodes_table path =
  let module C = Store.Codec in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let c = C.cursor ~pos:(String.length "XMORPH-STORE-2\n") data in
  let ntypes = C.read_uint c in
  for _ = 1 to ntypes do
    ignore (C.read_int c);
    ignore (C.read_string c)
  done;
  ignore (C.read_int_array c);
  for _ = 1 to ntypes do
    ignore (C.read_uint c);
    ignore (C.read_int c);
    ignore (C.read_uint c)
  done;
  for _ = 1 to ntypes do
    ignore (C.read_int_array c)
  done;
  for _ = 1 to ntypes do
    for _ = 1 to C.read_uint c do
      ignore (C.read_int_array c)
    done
  done;
  let n = C.read_uint c in
  let offsets = C.read_int_array c in
  let blob = C.read_string c in
  let stop i = if i + 1 < n then offsets.(i + 1) else String.length blob in
  (Array.init n (fun i -> stop i - offsets.(i)), String.length blob)

let gen_pin_batches =
  QCheck2.Gen.(
    pair (int_range 0 (List.length Gen.fixed_trees - 1))
      (list_size (int_range 1 3)
         (list_size (int_range 0 5)
            (triple bool nat
               (oneof
                  [ string_size (int_range 0 3);
                    map (fun n -> String.make n 'v') (int_range 126 129) ])))))

let prop_charges_match_saved_records =
  QCheck2.Test.make ~name:"value charges = saved record sizes; load (save s) = s" ~count:60
    gen_pin_batches (fun (k, batches) ->
      let store = Store.Shredded.shred (Xml.Doc.of_tree (List.nth Gen.fixed_trees k)) in
      let n = Store.Shredded.node_count store in
      let attrs =
        List.filter
          (fun i -> (Store.Shredded.node store i).Store.Shredded.kind = Xml.Doc.Attribute)
          (List.init n Fun.id)
        |> Array.of_list
      in
      let target (attr, j) =
        if attr && Array.length attrs > 0 then attrs.(j mod Array.length attrs) else j mod n
      in
      let stores =
        List.fold_left
          (fun acc batch ->
            Store.Shredded.update_values (List.hd acc)
              (List.map (fun (attr, j, v) -> (target (attr, j), v)) batch)
            :: acc)
          [ store ] batches
      in
      List.for_all
        (fun st ->
          let path = Filename.temp_file "xmorph" ".store" in
          Store.Shredded.save st path;
          let sizes, blob_bytes = saved_nodes_table path in
          let loaded = Store.Shredded.load path in
          Sys.remove path;
          let charged i =
            snd (io_delta st (fun () -> Store.Shredded.value st i)) = [ sizes.(i); 0 ]
          in
          Store.Shredded.data_bytes st = blob_bytes
          && Store.Shredded.node_count loaded = n
          && List.for_all
               (fun i ->
                 charged i
                 && Store.Shredded.node loaded i = Store.Shredded.node st i
                 && Store.Shredded.value loaded i = Store.Shredded.value st i)
               (List.init n Fun.id))
        stores)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_charges_match_saved_records ]

let suite =
  suite
  @ [ Alcotest.test_case "load refuses records save would not write" `Quick
        test_load_refuses_bad_records ]

(* A loaded store holds no Dewey number: like a shredded one it keeps the
   rank and parent columns, which a store derived from it by a value
   update shares.  It takes less than one word per node more than the
   shredded store it was saved from (the two build their adorned shapes
   apart), where a column of Dewey arrays would take at least two: a
   header and a component.  Its Dewey numbers are derived, each the
   document's. *)
let test_load_holds_no_dewey () =
  List.iter
    (fun doc ->
      let shredded = Store.Shredded.shred doc in
      let path = Filename.temp_file "xmorph" ".store" in
      Store.Shredded.save shredded path;
      let s = Store.Shredded.load path in
      Sys.remove path;
      let words st = Obj.reachable_words (Obj.repr st) in
      if words s >= words shredded + Store.Shredded.node_count s then
        Alcotest.failf "a loaded store takes %d words, its shredded store %d" (words s)
          (words shredded);
      let updated = Store.Shredded.update_values s [ (0, "v") ] in
      Alcotest.(check bool) "parent column shared" true
        (Store.Shredded.parent_column s == Store.Shredded.parent_column updated);
      for i = 0 to Store.Shredded.node_count s - 1 do
        if not (Xmutil.Dewey.equal (Store.Shredded.node updated i).Store.Shredded.dewey
                  (Xml.Doc.dewey doc i))
        then Alcotest.failf "node %d: derived Dewey number differs" i
      done)
    [ Xml.Doc.of_string Workloads.Figures.instance_a;
      Workloads.Xmark.to_doc ~seed:5 ~factor:0.002 () ]

let suite =
  suite
  @ [ Alcotest.test_case "load holds no Dewey number" `Quick test_load_holds_no_dewey ]

(* The value column is the document's own strings: a read of a node
   nobody wrote returns the string the document holds, uncopied, and
   allocates nothing.  A loaded store's empty values are one string. *)
let test_value_column_shared () =
  let doc = Workloads.Xmark.to_doc ~seed:5 ~factor:0.002 () in
  let store = Store.Shredded.shred doc in
  let n = Store.Shredded.node_count store in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Store.Shredded.value store i))
  done;
  Alcotest.(check (float 0.)) "minor words of every node's read" 0. (Gc.minor_words () -. w0);
  for i = 0 to n - 1 do
    if Store.Shredded.value store i != Xml.Doc.value doc i then
      Alcotest.failf "node %d: the store's value is not the document's string" i
  done;
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save store path;
  let loaded = Store.Shredded.load path in
  Sys.remove path;
  let empties =
    List.filter (fun v -> v = "") (List.init n (Store.Shredded.value loaded))
  in
  Alcotest.(check bool) "the document has several empty values" true
    (List.length empties > 1);
  List.iter
    (fun v -> if v != List.hd empties then Alcotest.fail "load allocated an empty value")
    empties

let suite =
  suite @ [ Alcotest.test_case "value column is the document's strings" `Quick
              test_value_column_shared ]

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
  suite
  @ [ Alcotest.test_case "old generation readable during writes" `Quick
        test_old_generation_under_writes ]
