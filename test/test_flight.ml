(* The flight recorder: bundles bounded by its owner's request ring,
   bundle write + offline round-trip through the incident viewer,
   retention, per-kind cooldown, refusing a directory it cannot write,
   context injection, and the bundle's query records and spans read
   from the request ring. *)

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

(* A recorder over a fresh directory, removed afterwards whatever
   happens inside, reading the requests finished into [ring] as a
   server's recorder reads its request ring. *)
let with_flight ?retention ?cooldown_s ?context ?(ring = Xmutil.Ring.create 256)
    f =
  let dir = tmp_dir () in
  let fl =
    match
      Flight.create ?retention ?cooldown_s ?context
        ~requests:(fun () -> List.rev (Xmutil.Ring.to_list ring))
        ~metrics:(Xmobs.Metrics.create ()) ~dir ()
    with
    | Ok fl -> fl
    | Error m -> Alcotest.fail m
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f fl dir)

let mk_qlog id =
  { Xmobs.Qlog.ts = 1754000000.0; id; trace_id = None; source = "test";
    doc = "d"; guard = "MUTATE site"; guard_hash = "abc"; query_hash = None;
    classification = None; outcome = Xmobs.Qlog.Ok; error = None;
    wall_s = 0.001; eval_s = 0.0; render_s = 0.0; in_nodes = 1;
    out_nodes = 1; io = None; cached = false; generation = Some 3 }

(* A finished request carrying query record [id], as a served query
   leaves one in its server's request ring. *)
let finish_with_qlog ring id =
  let ctx = Xmobs.Ctx.create () in
  Xmobs.Ctx.with_ctx ctx (fun () -> Xmobs.Ctx.attach_qlog (mk_qlog id));
  Xmutil.Ring.push ring
    (Xmobs.Ctx.finish ctx ~label:"l" ~outcome:"ok" ~status:200 ~wall_s:0.001)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let bundle dir name =
  Xmserve.Incident.of_json
    (Xmutil.Json.of_string (read_file (Filename.concat dir name)))

let trigger_bundle fl dir reason =
  match Flight.trigger fl ~kind:Flight.Manual ~reason () with
  | None -> Alcotest.fail "trigger returned no bundle"
  | Some name -> bundle dir name

let test_rings_bounded () =
  let ring = Xmutil.Ring.create 4 in
  with_flight ~ring (fun fl dir ->
      for i = 1 to 50 do
        finish_with_qlog ring i
      done;
      let t = trigger_bundle fl dir "bounded" in
      Alcotest.(check (list int)) "qlog bounded by the request ring"
        [ 47; 48; 49; 50 ]
        (List.map (fun (e : Xmobs.Qlog.entry) -> e.Xmobs.Qlog.id)
           t.Xmserve.Incident.qlog))

let test_trigger_writes_roundtrippable_bundle () =
  let ring = Xmutil.Ring.create 8 in
  with_flight ~ring (fun fl dir ->
      for i = 1 to 20 do
        finish_with_qlog ring i
      done;
      match Flight.trigger fl ~kind:Flight.Manual ~reason:"unit test" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          let path = Filename.concat dir name in
          Alcotest.(check bool) "bundle file exists" true
            (Sys.file_exists path);
          Alcotest.(check bool) "incidents lists it" true
            (List.mem_assoc name (Flight.incidents fl));
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
  with_flight ~retention:3 ~cooldown_s:0.0 (fun fl _dir ->
      let names =
        List.filter_map
          (fun i ->
            Flight.trigger fl ~kind:Flight.Manual
              ~reason:(Printf.sprintf "r%d" i) ())
          (List.init 6 Fun.id)
      in
      Alcotest.(check int) "all six triggers fired" 6 (List.length names);
      let kept = List.map fst (Flight.incidents fl) in
      Alcotest.(check int) "retention bounds the directory" 3
        (List.length kept);
      (* Oldest deleted first: the survivors are the last three written. *)
      let expected = List.filteri (fun i _ -> i >= 3) names in
      Alcotest.(check (list string)) "newest bundles survive" expected kept)

let test_cooldown_and_force () =
  with_flight ~cooldown_s:3600.0 (fun fl _dir ->
      Alcotest.(check bool) "first trigger fires" true
        (Flight.trigger fl ~kind:Flight.Slo_breach ~reason:"a" () <> None);
      Alcotest.(check bool) "same kind within cooldown is suppressed" true
        (Flight.trigger fl ~kind:Flight.Slo_breach ~reason:"b" () = None);
      Alcotest.(check bool) "a different kind is independent" true
        (Flight.trigger fl ~kind:Flight.Error_rate ~reason:"c" () <> None);
      Alcotest.(check bool) "force bypasses the cooldown" true
        (Flight.trigger fl ~force:true ~kind:Flight.Slo_breach ~reason:"d" ()
        <> None))

(* A directory the recorder cannot write is refused at creation, with
   its name, instead of dropping every bundle later. *)
let test_unusable_dir_refused () =
  let missing_parent = Filename.concat (tmp_dir ()) "a" in
  let file = Filename.temp_file "xmorph_flight" ".file" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  List.iter
    (fun dir ->
      match
        Flight.create ~requests:(fun () -> [])
          ~metrics:(Xmobs.Metrics.create ()) ~dir ()
      with
      | Ok _ -> Alcotest.failf "created a recorder over %s" dir
      | Error m ->
          Alcotest.(check bool) ("error names " ^ dir) true
            (String.starts_with
               ~prefix:("cannot create incident directory " ^ dir ^ ": ")
               m))
    [ missing_parent; file ];
  Alcotest.(check bool) "no parent directory made" false
    (Sys.file_exists (Filename.dirname missing_parent))

let test_context_provider () =
  let context () = Xmutil.Json.Obj [ ("marker", Xmutil.Json.String "ctx") ] in
  with_flight ~context (fun fl dir ->
      match Flight.trigger fl ~kind:Flight.Manual ~reason:"ctx" () with
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
  with_flight ~context:(fun () -> failwith "boom") (fun fl dir ->
      match Flight.trigger fl ~force:true ~kind:Flight.Manual ~reason:"boom" ()
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

let finish_with_spans ring names =
  let ctx = Xmobs.Ctx.create () in
  List.iter (fun n -> Xmobs.Ctx.region_in (Some ctx) n (fun () -> ())) names;
  Xmutil.Ring.push ring
    (Xmobs.Ctx.finish ctx ~label:"l" ~outcome:"ok" ~status:200 ~wall_s:0.001)

(* The bundle's spans are the finished requests' own: both requests', in
   wall-clock order, capped at 2048 entries with the newest kept. *)
let test_bundle_spans_from_requests () =
  let ring = Xmutil.Ring.create 256 in
  with_flight ~ring ~cooldown_s:0.0 (fun fl dir ->
      finish_with_spans ring [ "a1"; "a2" ];
      Unix.sleepf 0.002;
      finish_with_spans ring [ "b1"; "b2"; "b3" ];
      (match Flight.trigger fl ~kind:Flight.Manual ~reason:"two" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          let evs = bundle_events dir name in
          Alcotest.(check (list string)) "both requests' spans, oldest first"
            [ "a1"; "a2"; "b1"; "b2"; "b3" ] (List.map fst evs);
          let ts = List.map snd evs in
          Alcotest.(check bool) "timestamps read in wall-clock order" true
            (List.sort Float.compare ts = ts));
      let big = List.init 3000 (Printf.sprintf "c%d") in
      finish_with_spans ring big;
      match Flight.trigger fl ~kind:Flight.Manual ~reason:"big" () with
      | None -> Alcotest.fail "trigger returned no bundle"
      | Some name ->
          Alcotest.(check (list string)) "capped at 2048, newest kept"
            (List.filteri (fun i _ -> i >= 3000 - 2048) big)
            (List.map fst (bundle_events dir name)))

(* A bundle's qlog is the finished requests' own records, one per
   request that executed a query, oldest first: not the empty request's
   (it executed nothing) nor a re-run outside any context (as slow-query
   capture does it), and only those the request ring still holds. *)
let test_bundle_qlog_from_requests () =
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
    Xmobs.Ctx.finish ctx ~label:"q" ~outcome:"ok" ~status:200 ~wall_s:0.001
  in
  let a = serve "MUTATE site" in
  let empty =
    Xmobs.Ctx.finish (Xmobs.Ctx.create ()) ~label:"/query"
      ~outcome:"empty-guard" ~status:400 ~wall_s:0.0
  in
  let b = serve "MORPH person [ name ]" in
  ignore
    (Xmserve.Exec.execute ~source:"slow-capture"
       ~trace_id:b.Xmobs.Ctx.c_trace_id store "MORPH person [ name ]");
  let records capacity =
    let ring = Xmutil.Ring.create capacity in
    List.iter (Xmutil.Ring.push ring) [ a; empty; b ];
    with_flight ~ring ~cooldown_s:0.0 (fun fl dir ->
        List.map
          (fun (e : Xmobs.Qlog.entry) ->
            (e.Xmobs.Qlog.source, e.Xmobs.Qlog.trace_id))
          (trigger_bundle fl dir "requests").Xmserve.Incident.qlog)
  in
  let id (c : Xmobs.Ctx.finished) = Some c.Xmobs.Ctx.c_trace_id in
  Alcotest.(check (list (pair string (option string))))
    "one record per executed request, oldest first"
    [ ("serve", id a); ("serve", id b) ]
    (records 256);
  Alcotest.(check (list (pair string (option string))))
    "bounded by the request ring"
    [ ("serve", id b) ]
    (records 1)

let suite =
  [
    Alcotest.test_case "rings are bounded" `Quick test_rings_bounded;
    Alcotest.test_case "trigger writes a round-trippable bundle" `Quick
      test_trigger_writes_roundtrippable_bundle;
    Alcotest.test_case "retention deletes oldest first" `Quick test_retention;
    Alcotest.test_case "per-kind cooldown, force bypass" `Quick
      test_cooldown_and_force;
    Alcotest.test_case "an unusable directory is refused" `Quick
      test_unusable_dir_refused;
    Alcotest.test_case "context provider is embedded (null on raise)" `Quick
      test_context_provider;
    Alcotest.test_case "bundle spans come from the request ring" `Quick
      test_bundle_spans_from_requests;
    Alcotest.test_case "bundle qlog comes from the request ring" `Quick
      test_bundle_qlog_from_requests;
  ]
