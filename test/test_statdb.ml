(* The operator-statistics warehouse: aggregation, persistence and its
   failure modes, metric export, and the concurrency contract (recorded
   counts are exact sums no matter how many threads or domains). *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xmorph_statdb_%d_%s" (Unix.getpid ()) name)

let write_file p text =
  let oc = open_out_bin p in
  output_string oc text;
  close_out oc

let frame ?(children = []) ?(pairs = 0) ?(in_count = 0) ?(out_count = 0)
    ?(total_us = 10.0) ?(child_us = 0.0) ?(calls = 1) name =
  {
    Xmobs.Profile.name;
    calls;
    total_us;
    child_us;
    in_count;
    out_count;
    pairs;
    blocks_read = 0;
    blocks_written = 0;
    children;
  }

(* A small tree shaped like a real render profile: a root with a closest
   join child that appears twice (two tree positions merge by name). *)
let sample_frames () =
  [
    frame "render" ~total_us:100.0 ~child_us:60.0
      ~children:
        [
          frame "closest(a->b)" ~calls:2 ~total_us:40.0 ~in_count:4
            ~out_count:6 ~pairs:6;
          frame "emit" ~total_us:20.0;
        ];
    frame "closest(a->b)" ~calls:1 ~total_us:5.0 ~in_count:1 ~out_count:1
      ~pairs:1;
  ]

let find_exn db op =
  match Xmobs.Statdb.find db ~guard_hash:"g1" ~op with
  | Some s -> s
  | None -> Alcotest.failf "no row for %s" op

let test_record_flattens () =
  let db = Xmobs.Statdb.create () in
  Xmobs.Statdb.record db ~guard_hash:"g1" (sample_frames ());
  Alcotest.(check int) "three ops" 3 (Xmobs.Statdb.size db);
  let c = find_exn db "closest(a->b)" in
  Alcotest.(check int) "calls summed across positions" 3 c.Xmobs.Statdb.calls;
  Alcotest.(check int) "pairs" 7 c.Xmobs.Statdb.pairs;
  Alcotest.(check int) "in nodes" 5 c.Xmobs.Statdb.in_nodes;
  Alcotest.(check int) "out nodes" 7 c.Xmobs.Statdb.out_nodes;
  Alcotest.(check (float 1e-6)) "wall summed" 45.0 c.Xmobs.Statdb.wall_us;
  let r = find_exn db "render" in
  Alcotest.(check (float 1e-6)) "self = total - children" 40.0
    r.Xmobs.Statdb.self_us;
  Alcotest.(check bool) "latency buckets populated" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 c.Xmobs.Statdb.latency = 3)

let test_predictions_fold () =
  let db = Xmobs.Statdb.create () in
  (* Prediction 1..2 per parent over 3 parents = 3..6 total; observed 7
     pairs -> q-error 7/6. *)
  Xmobs.Statdb.record db ~guard_hash:"g1"
    ~predictions:
      [ ("closest(a->b)", Xmutil.Card.v 1 2, 3);
        ("closest(never->ran)", Xmutil.Card.v 1 1, 3) ]
    (sample_frames ());
  let c = find_exn db "closest(a->b)" in
  Alcotest.(check int) "pred lo" 3 c.Xmobs.Statdb.pred_lo;
  Alcotest.(check int) "pred hi" 6 c.Xmobs.Statdb.pred_hi;
  Alcotest.(check int) "observed" 7 c.Xmobs.Statdb.observed;
  Alcotest.(check int) "one q-error sample" 1 c.Xmobs.Statdb.qerr_n;
  Alcotest.(check (float 1e-6)) "q-error" (7.0 /. 6.0) c.Xmobs.Statdb.qerr_max;
  (* An edge whose operator never ran contributes nothing. *)
  Alcotest.(check bool) "unran edge skipped" true
    (Xmobs.Statdb.find db ~guard_hash:"g1" ~op:"closest(never->ran)" = None)

let test_json_roundtrip () =
  let db = Xmobs.Statdb.create () in
  Xmobs.Statdb.record db ~guard_hash:"g1"
    ~predictions:[ ("closest(a->b)", Xmutil.Card.unbounded 1, 2) ]
    (sample_frames ());
  Xmobs.Statdb.record db ~guard_hash:"g2" [ frame "compile" ];
  let db' = Xmobs.Statdb.of_json (Xmobs.Statdb.to_json db) in
  Alcotest.(check int) "row count survives" (Xmobs.Statdb.size db)
    (Xmobs.Statdb.size db');
  let c = find_exn db' "closest(a->b)" in
  Alcotest.(check int) "unbounded prediction survives" (-1)
    c.Xmobs.Statdb.pred_hi;
  Alcotest.(check int) "calls survive" 3 c.Xmobs.Statdb.calls;
  Alcotest.(check bool) "latency buckets survive" true
    (c.Xmobs.Statdb.latency <> [])

let test_save_load_merge () =
  let p = tmp_path "roundtrip.json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists p then Sys.remove p)
  @@ fun () ->
  let db = Xmobs.Statdb.create () in
  Xmobs.Statdb.record db ~guard_hash:"g1" (sample_frames ());
  Xmobs.Statdb.save db p;
  let loaded = Xmobs.Statdb.load p in
  Alcotest.(check int) "load round-trips" 3 (Xmobs.Statdb.size loaded);
  (* merge sums rows with the same key *)
  let more = Xmobs.Statdb.create () in
  Xmobs.Statdb.record more ~guard_hash:"g1" (sample_frames ());
  Xmobs.Statdb.merge ~into:loaded more;
  let c = find_exn loaded "closest(a->b)" in
  Alcotest.(check int) "merged calls doubled" 6 c.Xmobs.Statdb.calls;
  Alcotest.(check int) "merged pairs doubled" 14 c.Xmobs.Statdb.pairs

let test_corrupt_files_load_empty () =
  let check name text =
    let p = tmp_path name in
    write_file p text;
    Fun.protect ~finally:(fun () -> Sys.remove p) @@ fun () ->
    let db = Xmobs.Statdb.load p in
    Alcotest.(check int) (name ^ " loads empty") 0 (Xmobs.Statdb.size db)
  in
  check "empty.json" "";
  check "garbage.json" "!!! not json at all";
  check "truncated.json" "{\"xmorph_statdb\": 1, \"records\": [{\"guard\": \"g";
  check "wrong-version.json" "{\"xmorph_statdb\": 999, \"records\": []}";
  check "wrong-shape.json" "[1, 2, 3]";
  check "alien-object.json" "{\"hello\": \"world\"}";
  (* missing file: also empty, no raise *)
  let db = Xmobs.Statdb.load (tmp_path "never-written.json") in
  Alcotest.(check int) "missing file loads empty" 0 (Xmobs.Statdb.size db)

(* A warehouse opened on a file writes it back on [flush], only when
   something was recorded, and reopening it accumulates instead of
   resetting. *)
let test_file_accumulates () =
  let p = tmp_path "sink.json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists p then Sys.remove p)
  @@ fun () ->
  Alcotest.(check (option string)) "an in-memory warehouse has no file" None
    (Xmobs.Statdb.path (Xmobs.Statdb.create ()));
  let db = Xmobs.Statdb.load p in
  Alcotest.(check (option string)) "backed by its file" (Some p)
    (Xmobs.Statdb.path db);
  Xmobs.Statdb.flush db;
  Alcotest.(check bool) "a clean flush writes nothing" false
    (Sys.file_exists p);
  Xmobs.Statdb.record db ~guard_hash:"g1" (sample_frames ());
  Xmobs.Statdb.flush db;
  let db = Xmobs.Statdb.load p in
  Xmobs.Statdb.record db ~guard_hash:"g1" (sample_frames ());
  Xmobs.Statdb.flush db;
  let final = Xmobs.Statdb.load p in
  let c =
    match Xmobs.Statdb.find final ~guard_hash:"g1" ~op:"closest(a->b)" with
    | Some s -> s
    | None -> Alcotest.fail "row lost across opens"
  in
  Alcotest.(check int) "two recordings accumulated" 6 c.Xmobs.Statdb.calls

let test_latency_buckets () =
  Alcotest.(check int) "zero clamps" 0 (Xmobs.Statdb.bucket_of_us 0.0);
  Alcotest.(check int) "huge clamps" (Xmobs.Statdb.buckets - 1)
    (Xmobs.Statdb.bucket_of_us 1e12);
  let mono =
    let rec go prev us =
      us > 1e8
      || (let b = Xmobs.Statdb.bucket_of_us us in
          b >= prev && go b (us *. 2.0))
    in
    go 0 0.01
  in
  Alcotest.(check bool) "monotone in self time" true mono;
  (* bucket_value is a rough inverse: the value maps back to its bucket *)
  List.iter
    (fun i ->
      let v = Xmobs.Statdb.bucket_value_us i in
      let b = Xmobs.Statdb.bucket_of_us v in
      if abs (b - i) > 1 then
        Alcotest.failf "bucket %d value %.3fus maps back to %d" i v b)
    [ 1; 16; 32; 64; 100; 126 ]

(* The concurrency contract (satellite): N concurrent recorders into one
   warehouse produce exactly the sequential sums — calls, node counts,
   pairs.  Timings are additive floats and excluded. *)
let prop_concurrent_counts =
  QCheck2.Test.make ~name:"concurrent recorders sum exactly" ~count:10
    QCheck2.Gen.(int_range 2 6)
    (fun threads ->
      let db = Xmobs.Statdb.create () in
      let per_thread = 25 in
      let ts =
        List.init threads (fun i ->
            Thread.create
              (fun () ->
                for _ = 1 to per_thread do
                  Xmobs.Statdb.record db
                    ~guard_hash:(if i mod 2 = 0 then "even" else "odd")
                    ~predictions:[ ("closest(a->b)", Xmutil.Card.v 1 2, 3) ]
                    (sample_frames ())
                done)
              ())
      in
      List.iter Thread.join ts;
      let expect_recordings guard n =
        match Xmobs.Statdb.find db ~guard_hash:guard ~op:"closest(a->b)" with
        | None -> n = 0
        | Some s ->
            s.Xmobs.Statdb.calls = 3 * n
            && s.Xmobs.Statdb.pairs = 7 * n
            && s.Xmobs.Statdb.in_nodes = 5 * n
            && s.Xmobs.Statdb.out_nodes = 7 * n
            && s.Xmobs.Statdb.observed = 7 * n
            && s.Xmobs.Statdb.qerr_n = n
            && s.Xmobs.Statdb.pred_lo = 3 * n
            && s.Xmobs.Statdb.pred_hi = 6 * n
      in
      let evens = per_thread * ((threads + 1) / 2) in
      let odds = per_thread * (threads / 2) in
      expect_recordings "even" evens && expect_recordings "odd" odds)

let suite =
  [
    Alcotest.test_case "record flattens frame trees" `Quick test_record_flattens;
    Alcotest.test_case "predictions fold into q-error" `Quick
      test_predictions_fold;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "save / load / merge" `Quick test_save_load_merge;
    Alcotest.test_case "corrupt files load empty, never raise" `Quick
      test_corrupt_files_load_empty;
    Alcotest.test_case "warehouse file accumulates across opens" `Quick
      test_file_accumulates;
    Alcotest.test_case "latency bucket scale" `Quick test_latency_buckets;
    QCheck_alcotest.to_alcotest prop_concurrent_counts;
  ]
