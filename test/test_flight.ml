(* The flight recorder: bundles bounded by the completed-request ring,
   bundle write + offline round-trip through the incident viewer,
   retention, per-kind cooldown, the disabled no-op contract,
   context-provider injection, the bundle's query records and spans read
   from the completed-request ring, and that ring's eviction under
   concurrent writers never overflowing capacity or leaving a malformed
   survivor. *)

module Flight = Xmobs.Flight

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_flight_%d_%d" (Unix.getpid ()) !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Every test leaves the recorder off, whatever happens inside. *)
let with_flight ?retention ?cooldown_s f =
  let dir = tmp_dir () in
  Flight.enable ?retention ?cooldown_s ~dir ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      rm_rf dir)
    (fun () -> f dir)

let mk_qlog id =
  { Xmobs.Qlog.ts = 1754000000.0; id; trace_id = None; source = "test";
    doc = "d"; guard = "MUTATE site"; guard_hash = "abc"; query_hash = None;
    classification = None; outcome = Xmobs.Qlog.Ok; error = None;
    wall_s = 0.001; eval_s = 0.0; render_s = 0.0; in_nodes = 1;
    out_nodes = 1; io = None; cached = false; generation = Some 3 }

(* An empty completed-request ring of [capacity], restored to the
   default (256) and emptied afterwards. *)
let with_ring capacity f =
  Xmobs.Ctx.reset_completed ();
  Xmobs.Ctx.set_ring_capacity capacity;
  Fun.protect
    ~finally:(fun () ->
      Xmobs.Ctx.set_ring_capacity 256;
      Xmobs.Ctx.reset_completed ())
    f

(* A finished request carrying query record [id], as a served query
   leaves one. *)
let finish_with_qlog id =
  let ctx = Xmobs.Ctx.create () in
  Xmobs.Ctx.with_ctx ctx (fun () -> Xmobs.Ctx.attach_qlog (mk_qlog id));
  ignore
    (Xmobs.Ctx.finish ctx ~label:"l" ~outcome:"ok" ~status:200 ~wall_s:0.001)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let bundle dir name =
  Xmserve.Incident.of_json
    (Xmutil.Json.of_string (read_file (Filename.concat dir name)))

let trigger_bundle dir reason =
  match Flight.trigger ~kind:Flight.Manual ~reason () with
  | None -> Alcotest.fail "trigger returned no bundle"
  | Some name -> bundle dir name

let test_rings_bounded () =
  with_ring 4 @@ fun () ->
  with_flight (fun dir ->
      for i = 1 to 50 do
        finish_with_qlog i
      done;
      let t = trigger_bundle dir "bounded" in
      Alcotest.(check (list int)) "qlog bounded by the request ring"
        [ 47; 48; 49; 50 ]
        (List.map (fun (e : Xmobs.Qlog.entry) -> e.Xmobs.Qlog.id)
           t.Xmserve.Incident.qlog))

let test_trigger_writes_roundtrippable_bundle () =
  with_ring 8 @@ fun () ->
  with_flight (fun dir ->
      for i = 1 to 20 do
        finish_with_qlog i
      done;
      match Flight.trigger ~kind:Flight.Manual ~reason:"unit test" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          let path = Filename.concat dir name in
          Alcotest.(check bool) "bundle file exists" true
            (Sys.file_exists path);
          Alcotest.(check bool) "incidents lists it" true
            (List.mem_assoc name (Flight.incidents ()));
          (* The acceptance contract: the bundle round-trips the repo's
             own JSON parser and the offline viewer's validator. *)
          let json = Xmutil.Json.of_string (read_file path) in
          let t = Xmserve.Incident.of_json json in
          Alcotest.(check int) "version" Flight.version
            t.Xmserve.Incident.version;
          Alcotest.(check string) "kind" "manual" t.Xmserve.Incident.kind;
          Alcotest.(check string) "reason" "unit test"
            t.Xmserve.Incident.reason;
          Alcotest.(check int) "qlog captured (request ring bound)" 8
            (List.length t.Xmserve.Incident.qlog);
          Alcotest.(check int) "no malformed qlog record" 0
            t.Xmserve.Incident.qlog_malformed;
          Alcotest.(check bool) "generation survives into the bundle" true
            (List.for_all
               (fun (e : Xmobs.Qlog.entry) ->
                 e.Xmobs.Qlog.generation = Some 3)
               t.Xmserve.Incident.qlog);
          (* And the renderer accepts it. *)
          Alcotest.(check bool) "report renders" true
            (String.length (Xmserve.Incident.to_text t) > 0))

let test_retention () =
  with_flight ~retention:3 ~cooldown_s:0.0 (fun _dir ->
      let names =
        List.filter_map
          (fun i ->
            Flight.trigger ~kind:Flight.Manual
              ~reason:(Printf.sprintf "r%d" i) ())
          (List.init 6 Fun.id)
      in
      Alcotest.(check int) "all six triggers fired" 6 (List.length names);
      let kept = List.map fst (Flight.incidents ()) in
      Alcotest.(check int) "retention bounds the directory" 3
        (List.length kept);
      (* Oldest deleted first: the survivors are the last three written. *)
      let expected = List.filteri (fun i _ -> i >= 3) names in
      Alcotest.(check (list string)) "newest bundles survive" expected kept)

let test_cooldown_and_force () =
  with_flight ~cooldown_s:3600.0 (fun _dir ->
      Alcotest.(check bool) "first trigger fires" true
        (Flight.trigger ~kind:Flight.Slo_breach ~reason:"a" () <> None);
      Alcotest.(check bool) "same kind within cooldown is suppressed" true
        (Flight.trigger ~kind:Flight.Slo_breach ~reason:"b" () = None);
      Alcotest.(check bool) "a different kind is independent" true
        (Flight.trigger ~kind:Flight.Error_rate ~reason:"c" () <> None);
      Alcotest.(check bool) "force bypasses the cooldown" true
        (Flight.trigger ~force:true ~kind:Flight.Slo_breach ~reason:"d" ()
        <> None))

let test_disabled_is_noop () =
  Flight.disable ();
  Alcotest.(check bool) "disabled" false (Flight.enabled ());
  Alcotest.(check bool) "trigger declines" true
    (Flight.trigger ~kind:Flight.Manual ~reason:"x" () = None);
  Alcotest.(check bool) "no incident dir" true (Flight.dir () = None)

let test_context_provider () =
  with_flight (fun dir ->
      Flight.set_context_provider (fun () ->
          Xmutil.Json.Obj [ ("marker", Xmutil.Json.String "ctx") ]);
      (match Flight.trigger ~kind:Flight.Manual ~reason:"ctx" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name -> (
          match Xmutil.Json.of_string (read_file (Filename.concat dir name)) with
          | Xmutil.Json.Obj fields -> (
              match List.assoc_opt "context" fields with
              | Some (Xmutil.Json.Obj cf) ->
                  Alcotest.(check bool) "provider output embedded" true
                    (List.assoc_opt "marker" cf
                    = Some (Xmutil.Json.String "ctx"))
              | _ -> Alcotest.fail "context is not the provider's object")
          | _ -> Alcotest.fail "bundle is not an object"));
      (* A provider that raises must yield null, not a lost bundle. *)
      Flight.set_context_provider (fun () -> failwith "boom");
      match Flight.trigger ~force:true ~kind:Flight.Manual ~reason:"boom" ()
      with
      | None -> Alcotest.fail "raising provider lost the bundle"
      | Some name -> (
          match Xmutil.Json.of_string (read_file (Filename.concat dir name)) with
          | Xmutil.Json.Obj fields ->
              Alcotest.(check bool) "raising provider reads as null" true
                (List.assoc_opt "context" fields = Some Xmutil.Json.Null)
          | _ -> Alcotest.fail "bundle is not an object"))

let bundle_events dir name =
  List.filter_map
    (function
      | Xmutil.Json.Obj f -> (
          match (List.assoc_opt "name" f, List.assoc_opt "ts" f) with
          | Some (Xmutil.Json.String n), Some (Xmutil.Json.Float ts) ->
              Some (n, ts)
          | Some (Xmutil.Json.String n), Some (Xmutil.Json.Int ts) ->
              Some (n, float_of_int ts)
          | _ -> None)
      | _ -> None)
    (bundle dir name).Xmserve.Incident.trace_events

let finish_with_spans names =
  let ctx = Xmobs.Ctx.create () in
  List.iter (fun n -> Xmobs.Ctx.with_span ctx n (fun () -> ())) names;
  ignore
    (Xmobs.Ctx.finish ctx ~label:"l" ~outcome:"ok" ~status:200 ~wall_s:0.001)

(* The bundle's spans are the finished requests' own: both requests', in
   wall-clock order, capped at 2048 entries with the newest kept. *)
let test_bundle_spans_from_requests () =
  Xmobs.Ctx.reset_completed ();
  Fun.protect ~finally:Xmobs.Ctx.reset_completed @@ fun () ->
  with_flight ~cooldown_s:0.0 (fun dir ->
      finish_with_spans [ "a1"; "a2" ];
      Unix.sleepf 0.002;
      finish_with_spans [ "b1"; "b2"; "b3" ];
      (match Flight.trigger ~kind:Flight.Manual ~reason:"two" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          let evs = bundle_events dir name in
          Alcotest.(check (list string)) "both requests' spans, oldest first"
            [ "a1"; "a2"; "b1"; "b2"; "b3" ] (List.map fst evs);
          let ts = List.map snd evs in
          Alcotest.(check bool) "timestamps read in wall-clock order" true
            (List.sort Float.compare ts = ts));
      let big = List.init 3000 (Printf.sprintf "c%d") in
      finish_with_spans big;
      match Flight.trigger ~kind:Flight.Manual ~reason:"big" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          Alcotest.(check (list string)) "capped at 2048, newest kept"
            (List.filteri (fun i _ -> i >= 3000 - 2048) big)
            (List.map fst (bundle_events dir name)))

(* A bundle's qlog is the completed requests' own records, one per
   request that executed a query, oldest first: not the empty request's
   (it executed nothing) nor a re-run outside any context (as slow-query
   capture does it). *)
let test_bundle_qlog_from_requests () =
  with_ring 256 @@ fun () ->
  with_flight ~cooldown_s:0.0 (fun dir ->
      let store =
        Store.Shredded.shred
          (Xml.Doc.of_string
             "<site><person><name>a</name></person><person><name>b</name>\
              </person></site>")
      in
      let serve guard =
        let ctx = Xmobs.Ctx.create () in
        Xmobs.Ctx.with_ctx ctx (fun () ->
            ignore (Xmserve.Exec.execute ~source:"serve" store guard));
        ignore
          (Xmobs.Ctx.finish ctx ~label:"q" ~outcome:"ok" ~status:200
             ~wall_s:0.001);
        Xmobs.Ctx.trace_id ctx
      in
      let a = serve "MUTATE site" in
      ignore
        (Xmobs.Ctx.finish (Xmobs.Ctx.create ()) ~label:"/query"
           ~outcome:"empty-guard" ~status:400 ~wall_s:0.0);
      let b = serve "MORPH person [ name ]" in
      ignore
        (Xmserve.Exec.execute ~source:"slow-capture" ~trace_id:b store
           "MORPH person [ name ]");
      let records t =
        List.map
          (fun (e : Xmobs.Qlog.entry) ->
            (e.Xmobs.Qlog.source, e.Xmobs.Qlog.trace_id))
          t.Xmserve.Incident.qlog
      in
      Alcotest.(check (list (pair string (option string))))
        "one record per executed request, oldest first"
        [ ("serve", Some a); ("serve", Some b) ]
        (records (trigger_bundle dir "three requests"));
      Xmobs.Ctx.set_ring_capacity 1;
      Alcotest.(check (list (pair string (option string))))
        "bounded by the request ring"
        [ ("serve", Some b) ]
        (records (trigger_bundle dir "one request")))

(* However many writers race to finish their contexts into the
   completed-request ring (the trace ring behind /debug/trace and the
   bundles), on one domain or several, the ring never exceeds its
   capacity and every surviving request is whole: exactly its own
   well-formed span. *)
let trace_ring_survives ~domains ~capacity ~writers =
  with_ring capacity @@ fun () ->
  ignore
    (Tutil.on_domains domains
       (List.init writers (fun i () ->
            let ctx = Xmobs.Ctx.create () in
            let name = Printf.sprintf "w%d" i in
            Xmobs.Ctx.with_span ctx name (fun () -> ());
            Xmobs.Ctx.finish ctx ~label:name ~outcome:"ok" ~status:200
              ~wall_s:0.0)));
  let completed = Xmobs.Ctx.completed () in
  let whole (c : Xmobs.Ctx.completed) =
    match c.Xmobs.Ctx.c_entries with
    | [ s ] ->
        String.equal s.Xmobs.Trace.name c.Xmobs.Ctx.c_label
        && s.Xmobs.Trace.dur_us >= 0.0
        && c.Xmobs.Ctx.c_span_count = 1
    | _ -> false
  in
  List.length completed <= capacity && List.for_all whole completed

let prop_trace_ring_concurrent =
  QCheck2.Test.make
    ~name:"trace ring eviction under concurrent writers stays bounded"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 16) (int_range 1 40))
    (fun (capacity, writers) ->
      List.for_all
        (fun domains -> trace_ring_survives ~domains ~capacity ~writers)
        [ 1; 2; 4 ])

let suite =
  [
    Alcotest.test_case "rings are bounded" `Quick test_rings_bounded;
    Alcotest.test_case "trigger writes a round-trippable bundle" `Quick
      test_trigger_writes_roundtrippable_bundle;
    Alcotest.test_case "retention deletes oldest first" `Quick test_retention;
    Alcotest.test_case "per-kind cooldown, force bypass" `Quick
      test_cooldown_and_force;
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "context provider is embedded (null on raise)" `Quick
      test_context_provider;
    Alcotest.test_case "bundle spans come from the request ring" `Quick
      test_bundle_spans_from_requests;
    Alcotest.test_case "bundle qlog comes from the request ring" `Quick
      test_bundle_qlog_from_requests;
    QCheck_alcotest.to_alcotest prop_trace_ring_concurrent;
  ]
