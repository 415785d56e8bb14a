(* Request-scoped telemetry contexts: W3C traceparent parsing, the
   thread-keyed slot, span recording into the context (the only span
   sink) with its I/O attributes, per-request I/O attribution summing exactly to the
   global Io_stats deltas under concurrency, and the finished-request
   record behind the serve daemon's /debug endpoints. *)

module Ctx = Xmobs.Ctx

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

(* A nested [with_ctx] hands the thread back to the outer context, on a
   raise too, and leaves the installed count exact. *)
let test_slot_nested () =
  let outer = Ctx.create () and inner = Ctx.create () in
  let current_id () = Option.map Ctx.trace_id (Ctx.current ()) in
  Ctx.with_ctx outer (fun () ->
      Ctx.with_ctx inner (fun () ->
          Alcotest.(check (option string))
            "inner installed" (Some (Ctx.trace_id inner)) (current_id ()));
      Alcotest.(check (option string))
        "outer restored" (Some (Ctx.trace_id outer)) (current_id ());
      (try Ctx.with_ctx inner (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (option string))
        "outer restored after raise" (Some (Ctx.trace_id outer))
        (current_id ()));
  Alcotest.(check bool) "uninstalled after" true (Ctx.current () = None);
  Alcotest.(check bool) "installed count back to zero" false (Ctx.active ())

let span_names ctx =
  List.map (fun (s : Xmobs.Trace.span) -> s.Xmobs.Trace.name) (Ctx.entries ctx)

(* Phase spans land in the installed context; without one the same call
   sites record nothing and just run. *)
let test_spans_land_in_ctx () =
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () ->
      Ctx.region "outer" (fun () ->
          Ctx.region "inner" (fun () -> ())));
  Alcotest.(check (list string))
    "spans recorded into the context" [ "inner"; "outer" ] (span_names ctx);
  Alcotest.(check int) "span count" 2 (List.length (Ctx.entries ctx));
  Alcotest.(check int) "phase runs without a context" 7
    (Ctx.region "nowhere" (fun () -> 7));
  Alcotest.(check (list string))
    "nothing recorded outside the context" [ "inner"; "outer" ]
    (span_names ctx)

(* A span carries the store I/O charged under it (inclusive of nested
   spans, on a raise too) and the attributes [add_attr] attached to it;
   a span that charged nothing carries neither I/O key. *)
let test_span_attrs () =
  let stats = Store.Io_stats.create () in
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () ->
      Ctx.region "render" (fun () ->
          Store.Io_stats.charge_read ~ctx stats 100;
          Ctx.region "inner" (fun () ->
              Store.Io_stats.charge_write ~ctx stats 10);
          Ctx.add_attr "classification" (Xmobs.Trace.String "narrowing"));
      (try
         Ctx.region "boom" (fun () ->
             Store.Io_stats.charge_read ~ctx stats 5;
             failwith "x")
       with Failure _ -> ());
      Ctx.region "idle" (fun () -> ()));
  Ctx.add_attr "outside" (Xmobs.Trace.Bool true);
  let attrs name =
    let s =
      List.find (fun (s : Xmobs.Trace.span) -> s.Xmobs.Trace.name = name)
        (Ctx.entries ctx)
    in
    List.sort compare s.Xmobs.Trace.attrs
  in
  let open Xmobs.Trace in
  Alcotest.(check bool) "render: its own and its child's I/O, and the attr"
    true
    (attrs "render"
    = [ ("bytes_read", Int 100); ("bytes_written", Int 10);
        ("classification", String "narrowing") ]);
  Alcotest.(check bool) "inner: only what it charged" true
    (attrs "inner" = [ ("bytes_written", Int 10) ]);
  Alcotest.(check bool) "a raising span keeps its I/O" true
    (attrs "boom" = [ ("bytes_read", Int 5) ]);
  Alcotest.(check bool) "no I/O, no attributes" true (attrs "idle" = [])

let test_span_ring_bound () =
  let ctx = Ctx.create ~capacity:3 () in
  Ctx.with_ctx ctx (fun () ->
      for i = 1 to 8 do
        Ctx.region_in (Some ctx) (Printf.sprintf "s%d" i) (fun () -> ())
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
      Ctx.region_in (Some ctx) "a" ~attrs:[ ("k", Xmobs.Trace.Int 1) ] (fun () ->
          Ctx.region_in (Some ctx) "b" (fun () -> ())));
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

(* ---------- one region, two forms ---------- *)

(* A layer region in a context that traces and keeps frames is one span
   and one frame, timed by one pair of clock reads. *)
let test_region_span_and_frame () =
  let ctx = Ctx.create () in
  let (), frames =
    Ctx.with_ctx ctx (fun () ->
        Ctx.profiled (fun () -> Ctx.region "compile" (fun () -> ())))
  in
  match (Ctx.entries ctx, frames) with
  | [ s ], [ f ] ->
      Alcotest.(check (pair string string)) "one name" ("compile", "compile")
        (s.Xmobs.Trace.name, f.Xmobs.Frames.name);
      Alcotest.(check (float 0.0)) "span duration = frame total"
        f.Xmobs.Frames.total_us s.Xmobs.Trace.dur_us
  | spans, frames ->
      Alcotest.failf "%d spans and %d frames, not one of each"
        (List.length spans) (List.length frames)

(* [profiled] with no context installed runs in an untraced one, whose
   spans nobody would export: its regions are frames only. *)
let test_profiled_untraced_no_spans () =
  let seen = ref None in
  let (), frames =
    Ctx.profiled (fun () ->
        Ctx.region "parse" (fun () -> seen := Ctx.current ()))
  in
  Alcotest.(check (list string)) "the frame is kept" [ "parse" ]
    (List.map (fun (f : Xmobs.Frames.frame) -> f.name) frames);
  match !seen with
  | Some c -> Alcotest.(check (list string)) "no span" [] (span_names c)
  | None -> Alcotest.fail "profiled installed no context"

(* A traced context without frames sees a render's layers, each closest
   join and the emit among them, and none of the per-item operators of
   the type analysis or an XQuery evaluation. *)
let test_render_layers_only () =
  let doc =
    Xml.Doc.of_string
      "<data><rec><author>a1</author><name>n1</name></rec></data>"
  in
  let store = Store.Shredded.shred doc in
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () ->
      let t =
        Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store)
          "MORPH author [ name ]"
      in
      ignore (Xmorph.Interp.render store t);
      ignore
        (Xquery.Eval.run (Xml.Doc.to_tree doc) "for $r in /data/rec return $r/name"));
  let names = span_names ctx in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span recorded") true (List.mem n names))
    [ "closest(data.rec.author->data.rec.name)"; "emit"; "render"; "compile";
      "xquery.eval" ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is no span") false (List.mem n names))
    [ "morph"; "closest"; "type(author)"; "type(name)"; "flwor";
      "step:child::name" ]

(* ---------- I/O attribution ---------- *)

(* Charges from concurrent request threads, each under its own context:
   per-context byte/op totals must sum exactly to the global Io_stats
   delta over the same window (atomic adds commute). *)
let run_io_workers charge_lists =
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
                      Store.Io_stats.charge_read ~ctx stats bytes;
                      Store.Io_stats.charge_write ~ctx stats (bytes / 2))
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

(* ---------- the finished request ---------- *)

let finish_one ?profile ?(outcome = "ok") ?(status = 200) label =
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () -> Ctx.region_in (Some ctx) "work" (fun () -> ()));
  (ctx, Ctx.finish ?profile ctx ~label ~outcome ~status ~wall_s:0.001)

let test_finish_seals () =
  let ctx, c = finish_one ~outcome:"parse-error" ~status:400 "b" in
  Alcotest.(check string) "trace id kept" (Ctx.trace_id ctx) c.Ctx.c_trace_id;
  Alcotest.(check string) "label kept" "b" c.Ctx.c_label;
  Alcotest.(check string) "outcome kept" "parse-error" c.Ctx.c_outcome;
  Alcotest.(check int) "status kept" 400 c.Ctx.c_status;
  Alcotest.(check int) "span count kept" 1 c.Ctx.c_span_count;
  Alcotest.(check bool) "no profile unless given" true (c.Ctx.c_profile = None);
  (* [finish ~profile] seals frames into the record (the slow-query
     capture path). *)
  let ctx = Ctx.create () in
  let (), profile =
    Ctx.with_ctx ctx (fun () ->
        Ctx.profiled (fun () -> Ctx.region "render" (fun () -> ())))
  in
  let _, c = finish_one ~profile "c" in
  Alcotest.(check bool) "profile attached" true (c.Ctx.c_profile = Some profile)

(* [finish] returns the request's one record.  A context holding a query
   record is named by it unless the caller names the request; one
   without is named by the caller alone. *)
let test_finish_returns_record () =
  let q =
    { Xmobs.Qlog.ts = 0.0; id = 0; trace_id = None; source = "test";
      doc = "d"; guard = "MUTATE site"; guard_hash = "abc";
      query_hash = None; classification = None;
      outcome = Xmobs.Qlog.Type_mismatch; error = None; wall_s = 0.002;
      eval_s = 0.0; render_s = 0.0; in_nodes = 1; out_nodes = 0; io = None;
      cached = false; generation = None }
  in
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () -> Ctx.attach_qlog q);
  let c = Ctx.finish ctx ~status:422 ~wall_s:0.003 in
  Alcotest.(check string) "label is the record's guard hash" "abc"
    c.Ctx.c_label;
  Alcotest.(check string) "outcome is the record's" "type-mismatch"
    c.Ctx.c_outcome;
  Alcotest.(check bool) "the record rides along" true (c.Ctx.c_qlog = Some q);
  let ctx = Ctx.create () in
  Ctx.with_ctx ctx (fun () -> Ctx.attach_qlog q);
  let c = Ctx.finish ~label:"/query" ~outcome:"x" ctx ~status:400 ~wall_s:0.0 in
  Alcotest.(check (pair string string)) "the caller's names win"
    ("/query", "x") (c.Ctx.c_label, c.Ctx.c_outcome);
  let c =
    Ctx.finish ~label:"/query" ~outcome:"empty-guard" (Ctx.create ())
      ~status:400 ~wall_s:0.0
  in
  Alcotest.(check bool) "no record, none attached" true (c.Ctx.c_qlog = None);
  Alcotest.(check string) "refused outcome kept" "empty-guard" c.Ctx.c_outcome

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
    Alcotest.test_case "nested with_ctx restores the outer context" `Quick
      test_slot_nested;
    Alcotest.test_case "phase spans land in the context, and nowhere without one"
      `Quick test_spans_land_in_ctx;
    Alcotest.test_case "spans carry their I/O and added attributes" `Quick
      test_span_attrs;
    Alcotest.test_case "context span ring is bounded" `Quick
      test_span_ring_bound;
    Alcotest.test_case "context creation allocates under 512 words" `Quick
      test_create_is_small;
    Alcotest.test_case "context trace JSON parses" `Quick
      test_trace_json_parses;
    Alcotest.test_case "a layer region is one span and one frame" `Quick
      test_region_span_and_frame;
    Alcotest.test_case "profiled without a context records no span" `Quick
      test_profiled_untraced_no_spans;
    Alcotest.test_case "a frameless trace holds layers, not operators" `Quick
      test_render_layers_only;
    Alcotest.test_case "per-ctx I/O sums to the global delta" `Quick
      test_io_sums_to_global;
    QCheck_alcotest.to_alcotest prop_io_sum;
    Alcotest.test_case "blocks_of page rounding" `Quick test_blocks_of;
    Alcotest.test_case "finish seals names, status, spans and profile" `Quick
      test_finish_seals;
    Alcotest.test_case "finish returns its entry, named by the query record"
      `Quick test_finish_returns_record;
  ]
