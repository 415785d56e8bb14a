(* Request-scoped telemetry contexts: W3C traceparent parsing, the
   thread-keyed slot, span recording into the context instead of the
   global tracer, per-request I/O attribution summing exactly to the
   global Io_stats deltas under concurrency, metric mirroring, and the
   completed-request ring behind the serve daemon's /debug endpoints. *)

module Ctx = Xmobs.Ctx

let with_jobs n f =
  let saved = Xmutil.Pool.jobs () in
  Xmutil.Pool.set_jobs n;
  Fun.protect f ~finally:(fun () -> Xmutil.Pool.set_jobs saved)

let tid = "0af7651916cd43dd8448eb211c80319c"
let sid = "b7ad6b7169203331"

(* ---------- traceparent ---------- *)

let test_parse_valid () =
  let hdr = Printf.sprintf "00-%s-%s-01" tid sid in
  (match Ctx.parse_traceparent hdr with
  | Some (t, s) ->
      Alcotest.(check string) "trace id" tid t;
      Alcotest.(check string) "span id" sid s
  | None -> Alcotest.fail "well-formed traceparent rejected");
  Alcotest.(check bool)
    "surrounding whitespace tolerated" true
    (Ctx.parse_traceparent ("  " ^ hdr ^ " ") <> None);
  Alcotest.(check bool)
    "flags other than 01 accepted" true
    (Ctx.parse_traceparent (Printf.sprintf "00-%s-%s-00" tid sid) <> None);
  (* A future version may append dash-led fields after the flags. *)
  Alcotest.(check bool)
    "future version with extra tail accepted" true
    (Ctx.parse_traceparent (Printf.sprintf "01-%s-%s-01-extra" tid sid)
    <> None)

let test_parse_invalid () =
  let zeros32 = String.make 32 '0' and zeros16 = String.make 16 '0' in
  List.iter
    (fun hdr ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" hdr)
        true
        (Ctx.parse_traceparent hdr = None))
    [ "";
      "00";
      "not a traceparent";
      Printf.sprintf "00-%s-%s" tid sid (* missing flags *);
      Printf.sprintf "00-%s-%s-0" tid sid (* short flags *);
      Printf.sprintf "00-%s-%s-01" (String.sub tid 0 31 ^ "g") sid
      (* non-hex in trace id *);
      Printf.sprintf "00-%s-%s-01" (String.uppercase_ascii tid) sid
      (* uppercase hex *);
      Printf.sprintf "00-%s-%s-01" zeros32 sid (* all-zero trace id *);
      Printf.sprintf "00-%s-%s-01" tid zeros16 (* all-zero span id *);
      Printf.sprintf "ff-%s-%s-01" tid sid (* forbidden version *);
      Printf.sprintf "0g-%s-%s-01" tid sid (* non-hex version *);
      Printf.sprintf "00-%s-%s-01-extra" tid sid
      (* version 00 is exactly 55 chars *);
      Printf.sprintf "00-%s-%s_01" tid sid (* wrong separator *) ]

let hex_ok s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_fresh_ids () =
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let t = Ctx.fresh_trace_id () in
    Alcotest.(check int) "32 chars" 32 (String.length t);
    Alcotest.(check bool) "lowercase hex" true (hex_ok t);
    Alcotest.(check bool) "non-zero" true (t <> String.make 32 '0');
    Alcotest.(check bool) "unique" false (Hashtbl.mem seen t);
    Hashtbl.replace seen t ()
  done;
  let s = Ctx.fresh_span_id () in
  Alcotest.(check int) "span id 16 chars" 16 (String.length s);
  Alcotest.(check bool) "span id hex" true (hex_ok s)

let test_traceparent_of_ctx () =
  let ctx = Ctx.create ~trace_id:tid ~parent_span:sid () in
  Alcotest.(check string) "honors upstream trace id" tid (Ctx.trace_id ctx);
  let hdr = Ctx.traceparent ctx in
  (match Ctx.parse_traceparent hdr with
  | Some (t, _) -> Alcotest.(check string) "header round-trips" tid t
  | None -> Alcotest.failf "emitted traceparent %S does not parse" hdr);
  (* A fresh context mints a valid trace id of its own. *)
  let fresh = Ctx.create () in
  Alcotest.(check bool)
    "fresh header parses" true
    (Ctx.parse_traceparent (Ctx.traceparent fresh) <> None)

(* ---------- the slot ---------- *)

let test_slot () =
  Alcotest.(check bool) "no context outside" true (Ctx.current () = None);
  Alcotest.(check bool) "inactive outside" false (Ctx.active ());
  let ctx = Ctx.create () in
  let inner =
    Ctx.with_ctx ctx (fun () ->
        Alcotest.(check bool) "active inside" true (Ctx.active ());
        Alcotest.(check (option string))
          "current trace id"
          (Some (Ctx.trace_id ctx))
          (Option.map Ctx.trace_id (Ctx.current ()));
        Ctx.current ())
  in
  Alcotest.(check bool) "current inside" true (inner = Some ctx);
  Alcotest.(check bool) "uninstalled after" true (Ctx.current () = None);
  (* Uninstall survives exceptions. *)
  (try Ctx.with_ctx ctx (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "uninstalled after raise" true (Ctx.current () = None)

let span_names ctx =
  List.filter_map
    (function
      | Xmobs.Trace.Span s -> Some s.Xmobs.Trace.name
      | Xmobs.Trace.Event _ -> None)
    (Ctx.entries ctx)

let test_spans_land_in_ctx () =
  Xmobs.Trace.enable ();
  Fun.protect ~finally:Xmobs.Trace.disable @@ fun () ->
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () ->
      Xmobs.Obs.phase "outer" (fun () ->
          Xmobs.Obs.phase "inner" (fun () -> ())));
  Alcotest.(check (list string))
    "spans recorded into the context" [ "inner"; "outer" ] (span_names ctx);
  Alcotest.(check int) "span count" 2 (Ctx.span_count ctx);
  Alcotest.(check (list string))
    "global tracer untouched" []
    (List.map (fun (s : Xmobs.Trace.span) -> s.Xmobs.Trace.name)
       (Xmobs.Trace.spans ()));
  (* And with no context the same call sites fall back to the tracer. *)
  Xmobs.Obs.phase "global" (fun () -> ());
  Alcotest.(check (list string))
    "fallback to global tracer" [ "global" ]
    (List.map (fun (s : Xmobs.Trace.span) -> s.Xmobs.Trace.name)
       (Xmobs.Trace.spans ()))

let test_span_ring_bound () =
  let ctx = Ctx.create ~capacity:3 () in
  Ctx.with_ctx ctx (fun () ->
      for i = 1 to 8 do
        Ctx.with_span ctx (Printf.sprintf "s%d" i) (fun () -> ())
      done);
  Alcotest.(check (list string))
    "ring keeps the newest spans" [ "s6"; "s7"; "s8" ] (span_names ctx)

(* A context allocates its span slots as spans arrive, not its bound up
   front: creating one is cheap enough for every served request. *)
let test_create_is_small () =
  ignore (Sys.opaque_identity (Ctx.create ()));
  let mi0, pr0, ma0 = Gc.counters () in
  let ctx = Sys.opaque_identity (Ctx.create ()) in
  let mi1, pr1, ma1 = Gc.counters () in
  ignore ctx;
  let words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0) in
  if words >= 512.0 then
    Alcotest.failf "Ctx.create allocated %.0f words" words

let test_trace_json_parses () =
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () ->
      Ctx.with_span ctx "a" ~attrs:[ ("k", Xmobs.Trace.Int 1) ] (fun () ->
          Ctx.with_span ctx "b" (fun () -> ())));
  let text = Xmutil.Json.to_string (Ctx.trace_json ctx) in
  match Xmutil.Json.of_string text with
  | Xmutil.Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Xmutil.Json.List evs) ->
          Alcotest.(check int) "two events" 2 (List.length evs)
      | _ -> Alcotest.fail "traceEvents missing")
  | _ -> Alcotest.fail "trace export is not an object"
  | exception Xmutil.Json.Parse_error _ ->
      Alcotest.fail "trace export does not parse"

(* ---------- I/O attribution ---------- *)

(* Charges from concurrent request threads, each under its own context:
   per-context byte/op totals must sum exactly to the global Io_stats
   delta over the same window (atomic adds commute).  Forced to jobs=1 so
   a CI rerun with XMORPH_JOBS=2 cannot route charges through pool worker
   domains, which legitimately miss the thread-keyed slot. *)
let run_io_workers charge_lists =
  with_jobs 1 @@ fun () ->
  let stats = Store.Io_stats.create () in
  let before = Store.Io_stats.snapshot stats in
  let ctxs =
    List.map
      (fun charges ->
        let ctx = Ctx.create () in
        let th =
          Thread.create
            (fun () ->
              Ctx.with_ctx ctx (fun () ->
                  List.iter
                    (fun bytes ->
                      Store.Io_stats.charge_read stats bytes;
                      Store.Io_stats.charge_write stats (bytes / 2))
                    charges))
            ()
        in
        (ctx, th))
      charge_lists
  in
  List.iter (fun (_, th) -> Thread.join th) ctxs;
  let after = Store.Io_stats.snapshot stats in
  let delta = Store.Io_stats.diff after before in
  let sum f = List.fold_left (fun acc (ctx, _) -> acc + f (Ctx.io ctx)) 0 ctxs in
  (delta, sum)

let test_io_sums_to_global () =
  let delta, sum =
    run_io_workers [ [ 4096; 100; 7 ]; [ 8192 ]; [ 1; 2; 3; 4 ] ]
  in
  Alcotest.(check int)
    "bytes read sum to the global delta" delta.Store.Io_stats.bytes_read
    (sum (fun io -> io.Ctx.bytes_read));
  Alcotest.(check int)
    "bytes written sum to the global delta" delta.Store.Io_stats.bytes_written
    (sum (fun io -> io.Ctx.bytes_written));
  Alcotest.(check int)
    "read ops sum" delta.Store.Io_stats.read_ops
    (sum (fun io -> io.Ctx.read_ops));
  Alcotest.(check int)
    "write ops sum" delta.Store.Io_stats.write_ops
    (sum (fun io -> io.Ctx.write_ops))

let prop_io_sum =
  QCheck2.Test.make
    ~name:"per-ctx I/O sums exactly to the global delta (2+ threads)"
    ~count:30
    QCheck2.Gen.(list_size (int_range 2 4) (small_list (int_range 0 100_000)))
    (fun charge_lists ->
      let delta, sum = run_io_workers charge_lists in
      delta.Store.Io_stats.bytes_read = sum (fun io -> io.Ctx.bytes_read)
      && delta.Store.Io_stats.bytes_written
         = sum (fun io -> io.Ctx.bytes_written)
      && delta.Store.Io_stats.read_ops = sum (fun io -> io.Ctx.read_ops)
      && delta.Store.Io_stats.write_ops = sum (fun io -> io.Ctx.write_ops))

let test_blocks_of () =
  Alcotest.(check int) "0 bytes" 0 (Ctx.blocks_of 0);
  Alcotest.(check int) "1 byte" 1 (Ctx.blocks_of 1);
  Alcotest.(check int) "one page" 1 (Ctx.blocks_of 4096);
  Alcotest.(check int) "one page + 1" 2 (Ctx.blocks_of 4097)

(* ---------- metric mirroring ---------- *)

let test_metrics_mirrored () =
  let r = Xmobs.Metrics.create () in
  Xmobs.Metrics.with_registry r (fun () ->
      Xmobs.Metrics.enable ();
      Fun.protect ~finally:Xmobs.Metrics.disable @@ fun () ->
      let ctx = Ctx.create () in
      Ctx.with_ctx ctx (fun () ->
          Xmobs.Metrics.inc ~by:3 "hits";
          Xmobs.Metrics.inc "hits";
          Xmobs.Metrics.observe "lat" 2.0;
          Xmobs.Metrics.observe "lat" 3.0);
      (* The global registry still sees everything... *)
      Alcotest.(check int)
        "global counter" 4
        (Xmobs.Metrics.counter_value ~r "hits");
      (* ...and the context mirrored its own increments. *)
      match Ctx.metrics_json ctx with
      | Xmutil.Json.Obj fields ->
          (match List.assoc_opt "counters" fields with
          | Some (Xmutil.Json.Obj cs) ->
              Alcotest.(check bool)
                "ctx counter" true
                (List.assoc_opt "hits" cs = Some (Xmutil.Json.Int 4))
          | _ -> Alcotest.fail "counters missing");
          (match List.assoc_opt "observations" fields with
          | Some (Xmutil.Json.Obj os) -> (
              match List.assoc_opt "lat" os with
              | Some (Xmutil.Json.Obj lat) ->
                  Alcotest.(check bool)
                    "observation count" true
                    (List.assoc_opt "count" lat = Some (Xmutil.Json.Int 2));
                  Alcotest.(check bool)
                    "observation sum" true
                    (List.assoc_opt "sum" lat = Some (Xmutil.Json.Float 5.0))
              | _ -> Alcotest.fail "lat missing")
          | _ -> Alcotest.fail "observations missing")
      | _ -> Alcotest.fail "metrics_json is not an object")

(* ---------- the completed-request ring ---------- *)

let finish_one ?(outcome = "ok") ?(status = 200) label =
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () -> Ctx.with_span ctx "work" (fun () -> ()));
  Ctx.finish ctx ~label ~outcome ~status ~wall_s:0.001;
  Ctx.trace_id ctx

let test_ring_basics () =
  Ctx.reset_completed ();
  Fun.protect ~finally:Ctx.reset_completed @@ fun () ->
  let id1 = finish_one "a" in
  let id2 = finish_one ~outcome:"parse-error" ~status:400 "b" in
  (match Ctx.completed () with
  | [ c2; c1 ] ->
      Alcotest.(check string) "newest first" id2 c2.Ctx.c_trace_id;
      Alcotest.(check string) "oldest last" id1 c1.Ctx.c_trace_id;
      Alcotest.(check string) "label kept" "b" c2.Ctx.c_label;
      Alcotest.(check string) "outcome kept" "parse-error" c2.Ctx.c_outcome;
      Alcotest.(check int) "status kept" 400 c2.Ctx.c_status;
      Alcotest.(check int) "span count kept" 1 c2.Ctx.c_span_count
  | l -> Alcotest.failf "expected 2 completed entries, got %d" (List.length l));
  (match Ctx.find_completed id1 with
  | Some c -> Alcotest.(check string) "find by id" "a" c.Ctx.c_label
  | None -> Alcotest.fail "finished request not findable");
  Alcotest.(check bool)
    "unknown id" true
    (Ctx.find_completed "deadbeef" = None);
  (* Attach a profile after the fact (the slow-query capture path). *)
  let profile = Xmutil.Json.Obj [ ("op", Xmutil.Json.String "render") ] in
  Alcotest.(check bool)
    "attach to live entry" true
    (Ctx.attach_profile ~trace_id:id1 profile);
  (match Ctx.find_completed id1 with
  | Some c -> Alcotest.(check bool) "profile attached" true
                (c.Ctx.c_profile = Some profile)
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check bool)
    "attach to unknown id" false
    (Ctx.attach_profile ~trace_id:"deadbeef" profile)

let test_ring_eviction () =
  Ctx.reset_completed ();
  Ctx.set_ring_capacity 2;
  Fun.protect
    ~finally:(fun () ->
      Ctx.set_ring_capacity 256;
      Ctx.reset_completed ())
  @@ fun () ->
  let id1 = finish_one "a" in
  let _id2 = finish_one "b" in
  let _id3 = finish_one "c" in
  Alcotest.(check int) "capacity bounds the ring" 2
    (List.length (Ctx.completed ()));
  Alcotest.(check bool) "oldest evicted" true (Ctx.find_completed id1 = None)

let suite =
  [
    Alcotest.test_case "traceparent: well-formed values parse" `Quick
      test_parse_valid;
    Alcotest.test_case "traceparent: malformed values rejected" `Quick
      test_parse_invalid;
    Alcotest.test_case "fresh ids: format and uniqueness" `Quick
      test_fresh_ids;
    Alcotest.test_case "context traceparent round-trips" `Quick
      test_traceparent_of_ctx;
    Alcotest.test_case "thread slot install/uninstall" `Quick test_slot;
    Alcotest.test_case "phase spans land in the context, not the tracer"
      `Quick test_spans_land_in_ctx;
    Alcotest.test_case "context span ring is bounded" `Quick
      test_span_ring_bound;
    Alcotest.test_case "context creation allocates under 512 words" `Quick
      test_create_is_small;
    Alcotest.test_case "context trace JSON parses" `Quick
      test_trace_json_parses;
    Alcotest.test_case "per-ctx I/O sums to the global delta" `Quick
      test_io_sums_to_global;
    QCheck_alcotest.to_alcotest prop_io_sum;
    Alcotest.test_case "blocks_of page rounding" `Quick test_blocks_of;
    Alcotest.test_case "metric increments mirror into the context" `Quick
      test_metrics_mirrored;
    Alcotest.test_case "completed ring: find, attach, outcomes" `Quick
      test_ring_basics;
    Alcotest.test_case "completed ring eviction" `Quick test_ring_eviction;
  ]
