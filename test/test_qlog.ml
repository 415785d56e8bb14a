(* The structured query log: JSON round-trips, the FNV guard hash, the
   size-capped writer, and — the contract the serve daemon depends on —
   that N concurrent writers always produce exactly N whole, well-formed
   JSONL lines, from one domain or several. *)

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_qlog_%d_%d.jsonl" (Unix.getpid ()) !n)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let sample_entry ?(id = 7) ?(outcome = Xmobs.Qlog.Ok) () =
  {
    Xmobs.Qlog.ts = 1754000000.25;
    id;
    trace_id = Some "0123456789abcdef0123456789abcdef";
    source = "run";
    doc = "doc.xml";
    guard = "MUTATE site";
    guard_hash = Xmobs.Qlog.hash_text "MUTATE site";
    query_hash = Some (Xmobs.Qlog.hash_text "//person");
    classification = Some "strongly-typed";
    outcome;
    error =
      (if outcome = Xmobs.Qlog.Ok then None else Some "label x does not match");
    wall_s = 0.012;
    eval_s = 0.004;
    render_s = 0.008;
    in_nodes = 42;
    out_nodes = 40;
    io =
      Some
        {
          Xmobs.Qlog.bytes_read = 4096;
          bytes_written = 0;
          blocks_read = 1;
          blocks_written = 0;
          read_ops = 12;
          write_ops = 0;
        };
    cached = false;
    generation = None;
  }

let test_roundtrip () =
  List.iter
    (fun outcome ->
      let e = sample_entry ~outcome () in
      let e' = Xmobs.Qlog.entry_of_json (Xmobs.Qlog.entry_to_json e) in
      Alcotest.(check bool) "entry round-trips" true (e = e'))
    [ Xmobs.Qlog.Ok; Xmobs.Qlog.Parse_error; Xmobs.Qlog.Type_mismatch;
      Xmobs.Qlog.Internal ]

let test_roundtrip_minimal () =
  let e =
    {
      (sample_entry ()) with
      Xmobs.Qlog.trace_id = None;
      query_hash = None;
      classification = None;
      error = None;
      io = None;
    }
  in
  let e' = Xmobs.Qlog.entry_of_json (Xmobs.Qlog.entry_to_json e) in
  Alcotest.(check bool) "optional fields round-trip as absent" true (e = e')

(* Records written before the trace_id field existed must still parse
   (the serve daemon's log format is append-only across versions). *)
let test_pre_trace_id_record_parses () =
  let line =
    {|{"ts_ms": 1754000000250, "id": 7, "source": "run", "doc": "doc.xml", "guard": "MUTATE site", "guard_hash": "abc", "outcome": "ok", "wall_s": 0.012, "eval_s": 0.004, "render_s": 0.008, "in_nodes": 42, "out_nodes": 40, "jobs": 2}|}
  in
  let e = Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) in
  Alcotest.(check bool) "trace_id absent" true (e.Xmobs.Qlog.trace_id = None);
  Alcotest.(check int) "id parsed" 7 e.Xmobs.Qlog.id

(* Likewise for the cached flag (PR adding the serve cache): pre-cache
   records lack the field and must parse as uncached, and an uncached
   record must serialize without the field so cache-less logs keep the
   historical byte format. *)
let test_pre_cached_record_parses () =
  let line =
    {|{"ts_ms": 1754000000250, "id": 7, "source": "serve", "doc": "doc.xml", "guard": "MUTATE site", "guard_hash": "abc", "outcome": "ok", "wall_s": 0.012, "eval_s": 0.004, "render_s": 0.008, "in_nodes": 42, "out_nodes": 40, "jobs": 2}|}
  in
  let e = Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) in
  Alcotest.(check bool) "missing cached parses as false" false
    e.Xmobs.Qlog.cached;
  let uncached_line = Xmobs.Qlog.entry_to_line (sample_entry ()) in
  Alcotest.(check bool) "cached=false is not serialized" false
    (contains_substring uncached_line "cached")

let test_cached_roundtrip () =
  let e = { (sample_entry ()) with Xmobs.Qlog.cached = true } in
  let line = Xmobs.Qlog.entry_to_line e in
  Alcotest.(check bool) "cached=true is serialized" true
    (contains_substring line {|"cached":true|});
  let e' = Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) in
  Alcotest.(check bool) "cached survives the round-trip" true
    e'.Xmobs.Qlog.cached

(* And for the generation field (PR adding the flight recorder): pre-9
   records lack it and must parse as None, a record without one must
   serialize without the field, and a stamped record round-trips. *)
let test_pre_generation_record_parses () =
  let line =
    {|{"ts_ms": 1754000000250, "id": 7, "source": "serve", "doc": "doc.xml", "guard": "MUTATE site", "guard_hash": "abc", "outcome": "ok", "wall_s": 0.012, "eval_s": 0.004, "render_s": 0.008, "in_nodes": 42, "out_nodes": 40, "jobs": 2}|}
  in
  let e = Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) in
  Alcotest.(check bool) "missing generation parses as None" true
    (e.Xmobs.Qlog.generation = None);
  let bare_line = Xmobs.Qlog.entry_to_line (sample_entry ()) in
  Alcotest.(check bool) "generation=None is not serialized" false
    (contains_substring bare_line "generation")

(* Records no longer carry the render's job count: a fresh line has no
   [jobs] key and round-trips without it, and a line written while the key
   existed parses to the same entry. *)
let test_legacy_jobs_key () =
  let e = sample_entry () in
  let line = Xmobs.Qlog.entry_to_line e in
  Alcotest.(check bool) "no jobs key written" false
    (contains_substring line "jobs");
  Alcotest.(check bool) "entry round-trips without jobs" true
    (Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) = e);
  let legacy =
    match Xmobs.Qlog.entry_to_json e with
    | Xmutil.Json.Obj fields ->
        Xmutil.Json.Obj (fields @ [ ("jobs", Xmutil.Json.Int 1) ])
    | _ -> Alcotest.fail "entry JSON is not an object"
  in
  Alcotest.(check bool) "legacy jobs line parses to the same entry" true
    (Xmobs.Qlog.entry_of_json
       (Xmutil.Json.of_string (Xmutil.Json.to_string ~pretty:false legacy))
     = e)

let test_generation_roundtrip () =
  let e = { (sample_entry ()) with Xmobs.Qlog.generation = Some 5 } in
  let line = Xmobs.Qlog.entry_to_line e in
  Alcotest.(check bool) "generation is serialized" true
    (contains_substring line {|"generation":5|});
  let e' = Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) in
  Alcotest.(check bool) "generation survives the round-trip" true
    (e'.Xmobs.Qlog.generation = Some 5)

let test_outcome_strings () =
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Xmobs.Qlog.outcome_to_string o ^ " round-trips")
        true
        (Xmobs.Qlog.outcome_of_string (Xmobs.Qlog.outcome_to_string o) = Some o))
    [ Xmobs.Qlog.Ok; Xmobs.Qlog.Parse_error; Xmobs.Qlog.Type_mismatch;
      Xmobs.Qlog.Internal ];
  Alcotest.(check bool)
    "unknown outcome rejected" true
    (Xmobs.Qlog.outcome_of_string "warp-error" = None)

let test_hash () =
  let h = Xmobs.Qlog.hash_text "MUTATE site" in
  Alcotest.(check int) "16 hex chars" 16 (String.length h);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    h;
  Alcotest.(check string) "deterministic" h (Xmobs.Qlog.hash_text "MUTATE site");
  Alcotest.(check bool)
    "different text, different hash" true
    (h <> Xmobs.Qlog.hash_text "MUTATE sites")

let test_line_is_single_line () =
  let e = { (sample_entry ()) with Xmobs.Qlog.guard = "MUTATE a\nNEST b" } in
  let line = Xmobs.Qlog.entry_to_line e in
  Alcotest.(check bool) "no raw newline" true (not (String.contains line '\n'))

let read_lines path =
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let test_writer_cap_and_flush () =
  let path = tmp_path () in
  let w = Xmobs.Qlog.create ~cap:256 path in
  for i = 0 to 9 do
    Xmobs.Qlog.log w (sample_entry ~id:i ())
  done;
  (* cap 256 < one record: every log call spills *)
  Alcotest.(check int) "nothing pending past the cap" 0 (Xmobs.Qlog.pending w);
  Xmobs.Qlog.close w;
  Alcotest.(check int) "all lines on disk" 10 (List.length (read_lines path));
  Sys.remove path

let test_writer_buffers_under_cap () =
  let path = tmp_path () in
  let w = Xmobs.Qlog.create ~cap:(1 lsl 20) path in
  Xmobs.Qlog.log w (sample_entry ());
  Alcotest.(check bool) "buffered" true (Xmobs.Qlog.pending w > 0);
  Xmobs.Qlog.flush w;
  Alcotest.(check int) "flushed" 0 (Xmobs.Qlog.pending w);
  Alcotest.(check int) "one line" 1 (List.length (read_lines path));
  Xmobs.Qlog.close w;
  Sys.remove path

(* Size-based rotation: once the file reaches max_bytes it moves to
   [path.1] and a fresh primary takes over — at a record boundary, so
   every line in both generations stays whole. *)
let test_writer_rotates_at_max_bytes () =
  let path = tmp_path () in
  let line_len = String.length (Xmobs.Qlog.entry_to_line (sample_entry ())) + 1 in
  (* Threshold under two records: the second log call rotates.  cap 1
     spills (and so checks rotation) on every record. *)
  let w = Xmobs.Qlog.create ~cap:1 ~max_bytes:((2 * line_len) - 1) path in
  for i = 0 to 2 do
    Xmobs.Qlog.log w (sample_entry ~id:i ())
  done;
  Xmobs.Qlog.close w;
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  let rotated = read_lines (path ^ ".1") in
  let primary = read_lines path in
  Alcotest.(check int) "first two records rotated out" 2 (List.length rotated);
  Alcotest.(check int) "third record in the fresh primary" 1
    (List.length primary);
  let ids =
    List.map
      (fun line ->
        (Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line)).Xmobs.Qlog.id)
      (rotated @ primary)
  in
  Alcotest.(check (list int)) "no record lost or torn across rotation"
    [ 0; 1; 2 ] ids;
  Sys.remove path;
  Sys.remove (path ^ ".1")

(* Without max_bytes the writer never rotates, however large the file. *)
let test_writer_no_rotation_by_default () =
  let path = tmp_path () in
  let w = Xmobs.Qlog.create ~cap:1 path in
  for i = 0 to 19 do
    Xmobs.Qlog.log w (sample_entry ~id:i ())
  done;
  Xmobs.Qlog.close w;
  Alcotest.(check bool) "no rotated file" false (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "everything in the primary" 20
    (List.length (read_lines path));
  Sys.remove path

(* The rotation threshold counts what is already on disk: a writer
   reopened onto a near-full log rotates on its first spill, not after
   another full max_bytes of fresh records. *)
let test_writer_rotation_survives_reopen () =
  let path = tmp_path () in
  let line_len = String.length (Xmobs.Qlog.entry_to_line (sample_entry ())) + 1 in
  let max_bytes = (2 * line_len) - 1 in
  let w = Xmobs.Qlog.create ~cap:1 ~max_bytes path in
  Xmobs.Qlog.log w (sample_entry ~id:0 ());
  Xmobs.Qlog.close w;
  (* Restart: one record on disk, the next one crosses the threshold. *)
  let w = Xmobs.Qlog.create ~cap:1 ~max_bytes path in
  Xmobs.Qlog.log w (sample_entry ~id:1 ());
  Xmobs.Qlog.close w;
  Alcotest.(check bool) "reopened writer rotates on carried size" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "both generations hold both records" 2
    (List.length (read_lines (path ^ ".1")) + List.length (read_lines path));
  Sys.remove (path ^ ".1");
  if Sys.file_exists path then Sys.remove path

(* The serve daemon flushes after every record, so its buffer (default
   cap) never fills: rotation must still happen at the threshold. *)
let test_writer_rotates_when_flushed_per_record () =
  let path = tmp_path () in
  let line_len =
    String.length (Xmobs.Qlog.entry_to_line (sample_entry ~id:999 ())) + 1
  in
  let max_bytes = 4096 in
  let w = Xmobs.Qlog.create ~max_bytes path in
  for i = 0 to 999 do
    Xmobs.Qlog.log w (sample_entry ~id:i ());
    Xmobs.Qlog.flush w
  done;
  Xmobs.Qlog.close w;
  let size p = (Unix.stat p).Unix.st_size in
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "rotated file within one record of the threshold" true
    (size (path ^ ".1") < max_bytes + line_len);
  Alcotest.(check bool) "primary stays under the threshold" true
    (size path < max_bytes);
  Sys.remove path;
  Sys.remove (path ^ ".1")

(* The serve daemon logs from concurrent request threads, and a caller may
   log from several domains; every line must still be whole. *)
let concurrent_writers ~domains ~n =
  let path = tmp_path () in
  let w = Xmobs.Qlog.create ~cap:64 path in
  ignore
    (Tutil.on_domains domains
       (List.init n (fun i () -> Xmobs.Qlog.log w (sample_entry ~id:i ()))));
  Xmobs.Qlog.close w;
  let lines = read_lines path in
  let ok = ref (List.length lines = n) in
  let seen = Hashtbl.create n in
  List.iter
    (fun line ->
      match Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) with
      | e -> Hashtbl.replace seen e.Xmobs.Qlog.id ()
      | exception _ -> ok := false)
    lines;
  Sys.remove path;
  !ok && Hashtbl.length seen = n

let prop_concurrent_lines =
  QCheck2.Test.make ~name:"N concurrent writers -> N well-formed JSONL lines"
    ~count:20
    QCheck2.Gen.(int_range 1 50)
    (fun n ->
      List.for_all (fun domains -> concurrent_writers ~domains ~n) [ 1; 2; 4 ])

let test_global_sink () =
  let path = tmp_path () in
  Xmobs.Qlog.enable ~cap:64 path;
  Alcotest.(check bool) "enabled" true (Xmobs.Qlog.enabled ());
  Xmobs.Qlog.submit (sample_entry ());
  Xmobs.Qlog.submit (sample_entry ~id:8 ());
  Xmobs.Qlog.disable ();
  Alcotest.(check bool) "disabled" false (Xmobs.Qlog.enabled ());
  (* no sink: submit must be a silent no-op *)
  Xmobs.Qlog.submit (sample_entry ~id:9 ());
  Alcotest.(check int) "two records flushed" 2 (List.length (read_lines path));
  Sys.remove path

let suite =
  [
    Alcotest.test_case "entry JSON round-trip (all outcomes)" `Quick
      test_roundtrip;
    Alcotest.test_case "entry JSON round-trip (optionals absent)" `Quick
      test_roundtrip_minimal;
    Alcotest.test_case "pre-trace_id record still parses" `Quick
      test_pre_trace_id_record_parses;
    Alcotest.test_case "pre-cached record still parses" `Quick
      test_pre_cached_record_parses;
    Alcotest.test_case "cached flag round-trips when set" `Quick
      test_cached_roundtrip;
    Alcotest.test_case "pre-generation record still parses" `Quick
      test_pre_generation_record_parses;
    Alcotest.test_case "generation round-trips when set" `Quick
      test_generation_roundtrip;
    Alcotest.test_case "legacy jobs key is ignored" `Quick test_legacy_jobs_key;
    Alcotest.test_case "outcome string round-trip" `Quick test_outcome_strings;
    Alcotest.test_case "guard hash is 64-bit hex, deterministic" `Quick
      test_hash;
    Alcotest.test_case "log line never embeds a raw newline" `Quick
      test_line_is_single_line;
    Alcotest.test_case "writer spills when the cap is crossed" `Quick
      test_writer_cap_and_flush;
    Alcotest.test_case "writer buffers under the cap until flush" `Quick
      test_writer_buffers_under_cap;
    Alcotest.test_case "writer rotates at max_bytes" `Quick
      test_writer_rotates_at_max_bytes;
    Alcotest.test_case "writer never rotates without max_bytes" `Quick
      test_writer_no_rotation_by_default;
    Alcotest.test_case "rotation threshold survives reopen" `Quick
      test_writer_rotation_survives_reopen;
    Alcotest.test_case "writer flushed per record still rotates" `Quick
      test_writer_rotates_when_flushed_per_record;
    Alcotest.test_case "global sink writes and uninstalls" `Quick
      test_global_sink;
    QCheck_alcotest.to_alcotest prop_concurrent_lines;
  ]
