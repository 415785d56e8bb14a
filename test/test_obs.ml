(* The observability layer: span nesting, ordering and attributes of a
   context's regions, ring-buffer bounds, histogram percentiles against a
   known distribution, JSON export round-trips through Xmutil.Json, and
   the zero-allocation guarantee of the disabled path. *)

module Trace = Xmobs.Trace
module Ctx = Xmobs.Ctx
module Metrics = Xmobs.Metrics

(* A traced context: its layer regions record spans while it is
   installed ([Ctx.with_ctx]). *)
let recorder ?(capacity = 1 lsl 15) () = Ctx.create ~capacity ()

let with_scoped_metrics f = f (Metrics.create ())

(* Recorded spans in start order (ids are handed out as spans open). *)
let spans r =
  List.sort
    (fun (a : Trace.span) (b : Trace.span) -> compare a.Trace.id b.Trace.id)
    (Ctx.entries r)

let span_names r = List.map (fun (s : Trace.span) -> s.Trace.name) (spans r)

let test_span_nesting () =
  let r = recorder () in
  Ctx.with_ctx r (fun () ->
      Ctx.region "a" (fun () ->
          Ctx.region "b" (fun () -> ());
          Ctx.region "c" (fun () -> ()));
      Ctx.region "d" (fun () -> ()));
  let spans = spans r in
  Alcotest.(check (list string)) "start order" [ "a"; "b"; "c"; "d" ]
    (span_names r);
  let find n = List.find (fun (s : Trace.span) -> s.Trace.name = n) spans in
  let a = find "a" and b = find "b" and c = find "c" and d = find "d" in
  Alcotest.(check int) "a is a root" (-1) a.Trace.parent;
  Alcotest.(check int) "d is a root" (-1) d.Trace.parent;
  Alcotest.(check int) "b nests under a" a.Trace.id b.Trace.parent;
  Alcotest.(check int) "c nests under a" a.Trace.id c.Trace.parent;
  Alcotest.(check bool) "children start after their parent" true
    (b.Trace.start_us >= a.Trace.start_us
    && c.Trace.start_us >= b.Trace.start_us);
  Alcotest.(check bool) "parent spans its children" true
    (a.Trace.dur_us >= b.Trace.dur_us +. c.Trace.dur_us)

let test_span_exception () =
  let r = recorder () in
  Ctx.with_ctx r (fun () ->
      (try Ctx.region "boom" (fun () -> failwith "x") with Failure _ -> ());
      Ctx.region "after" (fun () -> ()));
  Alcotest.(check (list string)) "raised span still recorded"
    [ "boom"; "after" ] (span_names r);
  let after =
    List.find (fun (s : Trace.span) -> s.Trace.name = "after") (spans r)
  in
  Alcotest.(check int) "stack unwound by the raise" (-1) after.Trace.parent

let test_ring_bound () =
  let r = recorder ~capacity:4 () in
  Ctx.with_ctx r (fun () ->
      for i = 1 to 10 do
        Ctx.region (string_of_int i) (fun () -> ())
      done);
  Alcotest.(check (list string)) "ring keeps the newest entries"
    [ "7"; "8"; "9"; "10" ] (span_names r)

let test_span_attrs () =
  let r = recorder () in
  Ctx.with_ctx r (fun () ->
      Ctx.region "s" ~attrs:[ ("k", Trace.Int 1) ] (fun () ->
          Ctx.region "child" (fun () -> ());
          Ctx.add_attr "extra" (Trace.String "v"));
      Ctx.add_attr "orphan" (Trace.Bool true));
  let s = List.hd (spans r) in
  Alcotest.(check bool) "declared attr kept" true
    (List.mem_assoc "k" s.Trace.attrs);
  Alcotest.(check bool) "added attr lands on the innermost open span" true
    (List.mem_assoc "extra" s.Trace.attrs);
  Alcotest.(check bool) "no attr on a closed child" true
    ((List.nth (spans r) 1).Trace.attrs = []);
  Alcotest.(check bool) "no open span, no attr" false
    (List.exists
       (fun (s : Trace.span) -> List.mem_assoc "orphan" s.Trace.attrs)
       (spans r))

(* Percentiles of 100k uniform [0,100) draws.  The log-scale buckets
   quantize within ~5%, so check a 10% relative tolerance. *)
let test_histogram_percentiles () =
  with_scoped_metrics (fun r ->
      let rng = Xmutil.Prng.create 42 in
      for _ = 1 to 100_000 do
        Metrics.observe ~r "lat" (Xmutil.Prng.float rng 100.0)
      done;
      let pct q =
        match Metrics.percentile ~r "lat" q with
        | Some v -> v
        | None -> Alcotest.fail "histogram missing"
      in
      List.iter
        (fun q ->
          let expected = 100.0 *. q in
          let got = pct q in
          let rel = Float.abs (got -. expected) /. expected in
          if rel > 0.10 then
            Alcotest.failf "p%.0f: expected ~%g, got %g (off by %.1f%%)"
              (100.0 *. q) expected got (100.0 *. rel))
        [ 0.5; 0.95; 0.99 ];
      Alcotest.(check bool) "absent histogram reads as None" true
        (Metrics.percentile ~r "nope" 0.5 = None))

(* Degenerate histograms: the percentile clamp must hand back exact
   values at the edges, not bucket midpoints or infinities. *)
let test_percentile_edges () =
  with_scoped_metrics (fun r ->
      (* Empty: no histogram under the name at all. *)
      Alcotest.(check bool) "empty histogram reads as None" true
        (Metrics.percentile ~r "empty" 0.5 = None);
      (* Single bucket: every observation identical — the min/max clamp
         collapses every percentile to the one value. *)
      for _ = 1 to 50 do
        Metrics.observe ~r "flat" 3.25
      done;
      List.iter
        (fun q ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "p%g of a constant series" (100.0 *. q))
            3.25
            (Option.get (Metrics.percentile ~r "flat" q)))
        [ 0.5; 0.95; 0.99 ];
      (* All overflow: values past the top bucket clamp to the recorded
         max, never to a synthetic bucket boundary. *)
      for _ = 1 to 10 do
        Metrics.observe ~r "huge" 1e300
      done;
      Alcotest.(check (float 0.0)) "overflow clamps to max" 1e300
        (Option.get (Metrics.percentile ~r "huge" 0.99));
      (* Negative values land in the zero bucket and clamp to min. *)
      for _ = 1 to 10 do
        Metrics.observe ~r "neg" (-2.0)
      done;
      Alcotest.(check (float 0.0)) "negatives clamp to min" (-2.0)
        (Option.get (Metrics.percentile ~r "neg" 0.5)))

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* /proc/self/statm degradation: missing or malformed files must read as
   "no sample" — never a raise, never a bogus zero. *)
let test_selfmetrics_rss_degrades () =
  Alcotest.(check bool) "missing file" true
    (Xmobs.Selfmetrics.rss_bytes ~path:"/nonexistent/statm" () = None);
  let tmp name text =
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xmorph_statm_%d_%s" (Unix.getpid ()) name)
    in
    write_file p text;
    p
  in
  let check_none name text =
    let p = tmp name text in
    Fun.protect
      ~finally:(fun () -> Sys.remove p)
      (fun () ->
        Alcotest.(check bool) (name ^ " reads as None") true
          (Xmobs.Selfmetrics.rss_bytes ~path:p () = None))
  in
  check_none "empty" "";
  check_none "one-field" "1234\n";
  check_none "garbage" "not a statm line at all\n";
  check_none "non-numeric-resident" "1234 abc 12\n";
  check_none "negative-resident" "1234 -5 12\n";
  let good = tmp "good" "9999 123 45 1 0 77 0\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove good)
    (fun () ->
      Alcotest.(check bool) "well-formed statm: pages x page size" true
        (Xmobs.Selfmetrics.rss_bytes ~path:good ()
        = Some (123 * Xmobs.Selfmetrics.page_size ())))

(* /proc/self/fd and /proc/self/stat degradation: a system without
   procfs (or a truncated/garbled stat line) must read as "no sample",
   never a raise and never a fabricated count. *)
let test_selfmetrics_fds_threads_degrade () =
  Alcotest.(check bool) "missing fd dir" true
    (Xmobs.Selfmetrics.open_fds ~fd_dir:"/nonexistent/fd" () = None);
  let tmp name text =
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xmorph_stat_%d_%s" (Unix.getpid ()) name)
    in
    write_file p text;
    p
  in
  let threads_none name text =
    let p = tmp name text in
    Fun.protect
      ~finally:(fun () -> Sys.remove p)
      (fun () ->
        Alcotest.(check bool) (name ^ " reads as None") true
          (Xmobs.Selfmetrics.threads_total ~stat:p () = None))
  in
  Alcotest.(check bool) "missing stat file" true
    (Xmobs.Selfmetrics.threads_total ~stat:"/nonexistent/stat" () = None);
  threads_none "empty" "";
  threads_none "no-paren" "1234 comm R 1\n";
  threads_none "truncated" "1234 (comm) R 1 2 3\n";
  threads_none "non-numeric-threads"
    "1 (c) R 0 1 1 0 -1 4194560 233 0 0 0 0 0 0 0 20 0 abc 0 4 10000 100\n";
  threads_none "zero-threads"
    "1 (c) R 0 1 1 0 -1 4194560 233 0 0 0 0 0 0 0 20 0 0 0 4 10000 100\n";
  (* A well-formed line, including a comm with spaces and parens — the
     parse must anchor on the LAST ')'. *)
  let good =
    tmp "good"
      "1 (tricky ) comm) R 0 1 1 0 -1 4194560 233 0 0 0 0 0 0 0 20 0 7 0 4 \
       10000 100\n"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove good)
    (fun () ->
      Alcotest.(check bool) "well-formed stat: field 20 is num_threads" true
        (Xmobs.Selfmetrics.threads_total ~stat:good () = Some 7));
  (* The real procfs, when present, must agree with plain readdir. *)
  if Sys.file_exists "/proc/self/fd" then
    Alcotest.(check bool) "live fd count is positive" true
      (match Xmobs.Selfmetrics.open_fds () with
      | Some n -> n > 0
      | None -> false)

let test_selfmetrics_sample_sets_fd_thread_gauges () =
  with_scoped_metrics (fun r ->
      (* Degraded sources: both gauges stay unset in the export. *)
      Xmobs.Selfmetrics.sample ~r ~statm:"/nonexistent/statm"
        ~fd_dir:"/nonexistent/fd" ~stat:"/nonexistent/stat" ();
      (match Metrics.to_json ~r () with
      | Xmutil.Json.Obj fields -> (
          match List.assoc "gauges" fields with
          | Xmutil.Json.Obj gs ->
              Alcotest.(check bool) "fd gauge left unset" false
                (List.mem_assoc "xmorph_open_fds" gs);
              Alcotest.(check bool) "threads gauge left unset" false
                (List.mem_assoc "xmorph_threads_total" gs)
          | _ -> Alcotest.fail "gauges is not an object")
      | _ -> Alcotest.fail "metrics export is not an object");
      (* Healthy sources set both. *)
      if Sys.file_exists "/proc/self/fd" && Sys.file_exists "/proc/self/stat"
      then begin
        Xmobs.Selfmetrics.sample ~r ~statm:"/nonexistent/statm" ();
        Alcotest.(check bool) "fd gauge set from procfs" true
          (Metrics.gauge_value ~r "xmorph_open_fds" > 0.0);
        Alcotest.(check bool) "threads gauge set from procfs" true
          (Metrics.gauge_value ~r "xmorph_threads_total" > 0.0)
      end)

let test_selfmetrics_page_size () =
  let ps = Xmobs.Selfmetrics.page_size () in
  (* A real page size: positive, a power of two, in the range any
     supported system uses (4K..64K); and stable across calls. *)
  Alcotest.(check bool) "positive" true (ps > 0);
  Alcotest.(check bool) "power of two" true (ps land (ps - 1) = 0);
  Alcotest.(check bool) "plausible range" true (ps >= 4096 && ps <= 65536);
  Alcotest.(check int) "stable" ps (Xmobs.Selfmetrics.page_size ())

let test_selfmetrics_sample_without_statm () =
  with_scoped_metrics (fun r ->
      Xmobs.Selfmetrics.sample ~r ~uptime_s:12.5 ~statm:"/nonexistent/statm" ();
      Alcotest.(check (float 0.0)) "uptime gauge set" 12.5
        (Metrics.gauge_value ~r "xmorph_uptime_seconds");
      (* gauge_value reads 0.0 for unset — distinguish via the export. *)
      match Metrics.to_json ~r () with
      | Xmutil.Json.Obj fields -> (
          match List.assoc "gauges" fields with
          | Xmutil.Json.Obj gs ->
              Alcotest.(check bool) "rss gauge left unset" false
                (List.mem_assoc "xmorph_rss_bytes" gs);
              Alcotest.(check bool) "gc gauges still sampled" true
                (List.mem_assoc "gc_heap_words" gs)
          | _ -> Alcotest.fail "gauges is not an object")
      | _ -> Alcotest.fail "metrics export is not an object")

let test_counters_gauges () =
  with_scoped_metrics (fun r ->
      Metrics.inc ~r "hits";
      Metrics.inc ~r ~by:4 "hits";
      Metrics.set_gauge ~r "level" 2.5;
      Alcotest.(check int) "counter accumulates" 5
        (Metrics.counter_value ~r "hits");
      Alcotest.(check (float 0.0)) "gauge holds last value" 2.5
        (Metrics.gauge_value ~r "level");
      Alcotest.(check int) "absent counter reads as zero" 0
        (Metrics.counter_value ~r "nope"))

(* A phase is its span: with metrics on, it writes no series of its
   own. *)
let test_phase_records_span_only () =
  with_scoped_metrics (fun r ->
      let ctx = Xmobs.Ctx.create () in
      let v =
        Xmobs.Ctx.with_ctx ctx (fun () ->
            Xmobs.Ctx.region "work" (fun () -> 21 * 2))
      in
      Alcotest.(check int) "phase is transparent" 42 v;
      Alcotest.(check (list string)) "span recorded" [ "work" ]
        (List.map (fun (s : Trace.span) -> s.Trace.name)
           (Xmobs.Ctx.entries ctx));
      Alcotest.(check int) "no counter" 0
        (Metrics.counter_value ~r "phase.work.count");
      Alcotest.(check bool) "no latency series" true
        (Metrics.percentile ~r "phase.work.seconds" 0.5 = None))

let reserialized s = Xmutil.Json.to_string (Xmutil.Json.of_string s)

let json_names evs =
  List.filter_map
    (function
      | Xmutil.Json.Obj f -> (
          match List.assoc_opt "name" f with
          | Some (Xmutil.Json.String n) -> Some n
          | _ -> None)
      | _ -> None)
    evs

let export r =
  Xmutil.Json.to_string (Trace.json_of_entries (Ctx.entries r))

let test_trace_json_roundtrip () =
  let r = recorder () in
  Ctx.with_ctx r (fun () ->
      Ctx.region "outer"
        ~attrs:[ ("file", Trace.String "a \"b\"\nc"); ("n", Trace.Int 3) ]
        (fun () ->
          Ctx.add_attr "f" (Trace.Float 0.5);
          Ctx.region "inner" ~attrs:[ ("ok", Trace.Bool true) ] (fun () -> ())));
  let text = export r in
  Alcotest.(check string) "parse . print is the identity" text
    (reserialized text);
  (* And the parsed structure is navigable. *)
  match Xmutil.Json.of_string text with
  | Xmutil.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Xmutil.Json.List evs ->
          let names = json_names evs in
          List.iter
            (fun n ->
              Alcotest.(check bool) (n ^ " exported") true (List.mem n names))
            [ "outer"; "inner" ]
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace export is not an object"

let test_metrics_json_roundtrip () =
  with_scoped_metrics (fun r ->
      Metrics.inc ~r ~by:7 "c";
      Metrics.set_gauge ~r "g" 1.25;
      Metrics.observe ~r "h" 3.0;
      let text = Xmutil.Json.to_string (Metrics.to_json ~r ()) in
      Alcotest.(check string) "parse . print is the identity" text
        (reserialized text);
      match Xmutil.Json.of_string text with
      | Xmutil.Json.Obj fields ->
          let section name =
            match List.assoc name fields with
            | Xmutil.Json.Obj f -> f
            | _ -> Alcotest.fail (name ^ " is not an object")
          in
          Alcotest.(check bool) "counter exported" true
            (List.assoc_opt "c" (section "counters") = Some (Xmutil.Json.Int 7));
          Alcotest.(check bool) "gauge exported" true
            (List.assoc_opt "g" (section "gauges")
            = Some (Xmutil.Json.Float 1.25));
          Alcotest.(check bool) "histogram exported" true
            (List.mem_assoc "h" (section "histograms"))
      | _ -> Alcotest.fail "metrics export is not an object")

(* Span names and string attributes with quotes, backslashes, and control
   characters must survive the JSON exporter losslessly. *)
let test_trace_json_escaping () =
  let nasty = "q\"uote\\back\x01\x02\ntab\tend" in
  let r = recorder () in
  Ctx.with_ctx r (fun () ->
      Ctx.region nasty ~attrs:[ ("payload", Trace.String nasty) ] (fun () -> ()));
  match Xmutil.Json.of_string (export r) with
  | exception _ -> Alcotest.fail "escaped trace JSON does not parse"
  | Xmutil.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Xmutil.Json.List (Xmutil.Json.Obj ev :: _) -> (
          Alcotest.(check bool) "span name round-trips" true
            (List.assoc_opt "name" ev = Some (Xmutil.Json.String nasty));
          match List.assoc_opt "args" ev with
          | Some (Xmutil.Json.Obj args) ->
              Alcotest.(check bool) "string attr round-trips" true
                (List.assoc_opt "payload" args
                = Some (Xmutil.Json.String nasty))
          | _ -> Alcotest.fail "span args missing")
      | _ -> Alcotest.fail "traceEvents is not a non-empty list")
  | _ -> Alcotest.fail "trace export is not an object"

(* Writing past the ring's capacity drops the oldest entries and nothing
   else: the export stays well-formed and holds exactly the survivors. *)
let test_ring_eviction_json () =
  let r = recorder ~capacity:3 () in
  Ctx.with_ctx r (fun () ->
      for i = 1 to 8 do
        Ctx.region (Printf.sprintf "s%d" i) (fun () ->
            if i mod 2 = 0 then Ctx.region (Printf.sprintf "c%d" i) (fun () -> ()))
      done);
  match Xmutil.Json.of_string (export r) with
  | exception _ -> Alcotest.fail "post-eviction JSON does not parse"
  | Xmutil.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Xmutil.Json.List evs ->
          Alcotest.(check int) "capacity bounds the export" 3
            (List.length evs);
          (* Ring order is closing order: span 8's child closes before
             span 8 itself. *)
          Alcotest.(check (list string)) "only the newest entries survive"
            [ "s7"; "c8"; "s8" ] (json_names evs)
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace export is not an object"

(* The disabled path must not allocate: one branch, then the traced
   function.  Gc.minor_words itself boxes a float per call, so allow a
   small constant slack — far below one word per iteration. *)
let test_disabled_path_no_alloc () =
  Xmcache.disable ();
  let f () = 0 in
  (* A pre-built result entry so the disabled add_result call below has
     nothing to construct. *)
  let res_entry =
    { Xmcache.body = "x"; is_query = false; classification = None;
      out_nodes = 0 }
  in
  let io = Store.Io_stats.create () in
  (* What an operation resolves with no context installed. *)
  let none = Xmobs.Ctx.current () in
  (* Warm up so any one-time closure setup is done before measuring. *)
  ignore (Sys.opaque_identity (Xmobs.Ctx.region "x" f));
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    (* The per-request context paths: with no context installed anywhere
       a layer region is a single atomic load, and an operator region
       and its counts a match on the operation's [None]. *)
    ignore (Sys.opaque_identity (Xmobs.Ctx.region "x" f));
    let tok = Xmobs.Ctx.enter none "x" in
    Xmobs.Ctx.add_in none 1;
    Xmobs.Ctx.add_pairs none 1;
    Xmobs.Ctx.exit none tok;
    Store.Io_stats.charge_read io 4096;
    Store.Io_stats.charge_write io 4096;
    (* The serve cache shares the sink contract: every entry point is one
       atomic load while disabled. *)
    ignore (Sys.opaque_identity (Xmcache.enabled ()));
    ignore
      (Sys.opaque_identity
         (Xmcache.find_plan ~guide_uid:0 ~guard_hash:"x" ~enforce:false));
    ignore
      (Sys.opaque_identity
         (Xmcache.find_result ~generation:0 ~guard_hash:"x" ~query_hash:""
            ~compact:false ~enforce:false));
    Xmcache.add_result ~generation:0 ~guard_hash:"x" ~query_hash:""
      ~compact:false ~enforce:false res_entry;
    ignore (Sys.opaque_identity (Xmobs.Ctx.current ()))
  done;
  let w1 = Gc.minor_words () in
  let delta = w1 -. w0 in
  if delta > 100.0 then
    Alcotest.failf "disabled path allocated %.0f minor words over 1000 calls"
      delta;
  (* The served case: a request context is installed but keeps no
     frames, so an operator region handed the context reads one field,
     and a store charge handed it adds to counters only. *)
  let c = Xmobs.Ctx.create () in
  let ctx = Some c in
  Xmobs.Ctx.with_ctx c (fun () ->
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        let tok = Xmobs.Ctx.enter ctx "x" in
        Xmobs.Ctx.add_in ctx 1;
        Xmobs.Ctx.add_pairs ctx 1;
        Xmobs.Ctx.exit ctx tok;
        Store.Io_stats.charge_read ?ctx io 4096;
        Store.Io_stats.charge_write ?ctx io 4096
      done;
      let delta = Gc.minor_words () -. w0 in
      if delta > 100.0 then
        Alcotest.failf
          "operator regions and context charges under a frameless context \
           allocated %.0f minor words over 1000 calls"
          delta)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "spans survive exceptions" `Quick test_span_exception;
    Alcotest.test_case "ring buffer is bounded" `Quick test_ring_bound;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "selfmetrics rss degrades to None" `Quick
      test_selfmetrics_rss_degrades;
    Alcotest.test_case "selfmetrics sample without statm" `Quick
      test_selfmetrics_sample_without_statm;
    Alcotest.test_case "selfmetrics fds/threads degrade to None" `Quick
      test_selfmetrics_fds_threads_degrade;
    Alcotest.test_case "selfmetrics sample sets fd/thread gauges" `Quick
      test_selfmetrics_sample_sets_fd_thread_gauges;
    Alcotest.test_case "selfmetrics page size is real" `Quick
      test_selfmetrics_page_size;
    Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
    Alcotest.test_case "phase records its span, not metrics" `Quick
      test_phase_records_span_only;
    Alcotest.test_case "trace json roundtrip" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "metrics json roundtrip" `Quick
      test_metrics_json_roundtrip;
    Alcotest.test_case "trace json escaping" `Quick test_trace_json_escaping;
    Alcotest.test_case "ring eviction keeps json well-formed" `Quick
      test_ring_eviction_json;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_no_alloc;
  ]
