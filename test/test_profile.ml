(* The per-operator profiler: frame aggregation by name, count
   accumulation, self-vs-cumulative time, JSON round-tripping through
   Xmutil.Json, end-to-end attribution when a guard (and a guarded
   query) runs under the profiler, and exact per-context frames when two
   threads profile at once. *)

module Frames = Xmobs.Frames
module Ctx = Xmobs.Ctx

(* [with_profile f] runs [f] with a fresh frame tree in this thread's
   context; [roots ()] reads that tree while [f] runs. *)
let with_profile f = ignore (Ctx.profiled f)

let roots () =
  match Ctx.frames () with Some tree -> Frames.roots tree | None -> []

let find_or_fail path =
  match Frames.lookup (roots ()) path with
  | Some fr -> fr
  | None ->
      Alcotest.failf "no frame at %s in:\n%s" (String.concat "/" path)
        (Frames.to_text (roots ()))

let test_frame_merge () =
  with_profile (fun () ->
      Ctx.region "loop" (fun () ->
          for _ = 1 to 3 do
            Ctx.region "leaf" (fun () -> Ctx.add_pairs (Ctx.current ()) 2)
          done);
      let loop = find_or_fail [ "loop" ] in
      Alcotest.(check int) "one loop frame" 1 loop.Frames.calls;
      Alcotest.(check int) "one aggregated child" 1
        (List.length (Frames.ordered_children loop));
      let leaf = find_or_fail [ "loop"; "leaf" ] in
      Alcotest.(check int) "three calls merged into one frame" 3
        leaf.Frames.calls;
      Alcotest.(check int) "pairs accumulate across calls" 6 leaf.Frames.pairs)

let test_counts_accumulate () =
  with_profile (fun () ->
      let tok = Ctx.enter (Ctx.current ()) "op" in
      Ctx.add_in (Ctx.current ()) 4;
      Ctx.add_out (Ctx.current ()) 2;
      Ctx.exit ~in_count:1 ~out_count:3 (Ctx.current ()) tok;
      let fr = find_or_fail [ "op" ] in
      Alcotest.(check int) "in = add_in + exit" 5 fr.Frames.in_count;
      Alcotest.(check int) "out = add_out + exit" 5 fr.Frames.out_count)

let test_self_within_total () =
  with_profile (fun () ->
      Ctx.region "parent" (fun () ->
          Ctx.region "child" (fun () -> Sys.opaque_identity (ref 0)))
      |> ignore;
      let parent = find_or_fail [ "parent" ] in
      let child = find_or_fail [ "parent"; "child" ] in
      Alcotest.(check bool) "self <= total" true
        (Frames.self_us parent <= parent.Frames.total_us);
      Alcotest.(check bool) "child time within parent" true
        (child.Frames.total_us <= parent.Frames.total_us);
      Alcotest.(check bool) "parent self excludes child" true
        (Frames.self_us parent
        <= parent.Frames.total_us -. child.Frames.total_us +. 1e-6))

let test_exception_unwinds () =
  with_profile (fun () ->
      (try Ctx.region "boom" (fun () -> failwith "x") with Failure _ -> ());
      Ctx.region "after" (fun () -> ());
      let boom = find_or_fail [ "boom" ] in
      Alcotest.(check int) "raised frame still counted" 1 boom.Frames.calls;
      (* [after] must be a root, not a child of the raised frame. *)
      ignore (find_or_fail [ "after" ]);
      Alcotest.(check int) "stack unwound by the raise" 0
        (List.length (Frames.ordered_children boom)))

let test_json_roundtrip () =
  with_profile (fun () ->
      Ctx.region "a" (fun () ->
          Ctx.region "b \"quoted\"\n" (fun () -> Ctx.add_in (Ctx.current ()) 7));
      let text = Xmutil.Json.to_string (Frames.to_json (roots ())) in
      match Xmutil.Json.of_string text with
      | exception _ -> Alcotest.fail "profile JSON does not parse"
      | parsed ->
          Alcotest.(check string) "parse . print is the identity" text
            (Xmutil.Json.to_string parsed);
          (match parsed with
          | Xmutil.Json.Obj [ ("profile", Xmutil.Json.List [ Xmutil.Json.Obj a ]) ] ->
              Alcotest.(check bool) "root name exported" true
                (List.assoc_opt "name" a = Some (Xmutil.Json.String "a"));
              (match List.assoc_opt "children" a with
              | Some (Xmutil.Json.List [ Xmutil.Json.Obj b ]) ->
                  Alcotest.(check bool) "nasty child name round-trips" true
                    (List.assoc_opt "name" b
                    = Some (Xmutil.Json.String "b \"quoted\"\n"));
                  Alcotest.(check bool) "in count exported" true
                    (List.assoc_opt "in" b = Some (Xmutil.Json.Int 7))
              | _ -> Alcotest.fail "child frame missing")
          | _ -> Alcotest.fail "unexpected profile JSON shape"))

(* A nested profile starts from a fresh tree and hands the outer one
   back untouched. *)
let test_reset_discards () =
  with_profile (fun () ->
      Ctx.region "gone" (fun () -> ());
      with_profile (fun () ->
          Alcotest.(check int) "reset drops collected frames" 0
            (List.length (roots ()));
          Ctx.region "kept" (fun () -> ());
          ignore (find_or_fail [ "kept" ]));
      ignore (find_or_fail [ "gone" ]);
      Alcotest.(check bool) "the nested frames stay nested" true
        (Frames.lookup (roots ()) [ "kept" ] = None))

let doc =
  Xml.Doc.of_string
    "<data><rec><author>a1</author><name>n1</name></rec>\
     <rec><author>a2</author><name>n2</name></rec></data>"

let test_transform_profile () =
  let store = Store.Shredded.shred doc in
  with_profile (fun () ->
      ignore (Xmorph.Interp.transform ~enforce:false store "MORPH author [ name ]");
      (* The profile mirrors the pipeline: compile > morph > closest with
         the guard's two type selections as children. *)
      let closest = find_or_fail [ "compile"; "morph"; "closest" ] in
      Alcotest.(check bool) "closest recorded its pairs" true
        (closest.Frames.pairs > 0);
      ignore (find_or_fail [ "compile"; "morph"; "closest"; "type(author)" ]);
      ignore (find_or_fail [ "compile"; "morph"; "closest"; "type(name)" ]);
      (* Rendering reads the store: the render subtree owns block I/O. *)
      let render = find_or_fail [ "render" ] in
      Alcotest.(check bool) "render charged block reads" true
        (render.Frames.blocks_read > 0);
      let edge = find_or_fail [ "render"; "closest(data.rec.author->data.rec.name)" ] in
      Alcotest.(check int) "join saw both parents" 2 edge.Frames.in_count;
      Alcotest.(check int) "join matched both names" 2 edge.Frames.pairs)

let test_xquery_profile () =
  let root = Xml.Doc.to_tree doc in
  let query = "for $r in /data/rec return $r/name" in
  let logical =
    Guarded.Logical.create ~enforce:false (Store.Shredded.shred doc)
      ~guard:"MUTATE data"
  in
  with_profile (fun () ->
      ignore (Xquery.Eval.run root query);
      ignore (Guarded.Logical.query logical query);
      (* Both architectures run the one evaluator, so both record the same
         frames under their own top frame. *)
      List.iter
        (fun top ->
          let flwor = find_or_fail [ top; "flwor" ] in
          Alcotest.(check int) "one flwor evaluation" 1 flwor.Frames.calls;
          (* The return clause runs once per binding: its step frame merges. *)
          let step = find_or_fail [ top; "flwor"; "step:child::name" ] in
          Alcotest.(check int) "return step called per tuple" 2 step.Frames.calls;
          Alcotest.(check int) "two names out in total" 2 step.Frames.out_count)
        [ "xquery.eval"; "logical.query" ])

(* With no frame-keeping context the gate is off; with one, a context
   that keeps none (nested over it here) still records nothing. *)
let test_disabled_records_nothing () =
  let invisible () =
    Ctx.region "invisible" (fun () -> ());
    let tok = Ctx.enter (Ctx.current ()) "also-invisible" in
    Ctx.exit (Ctx.current ()) tok
  in
  invisible ();
  let (), frames =
    Ctx.profiled (fun () -> Ctx.with_ctx (Ctx.create ()) invisible)
  in
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length frames)

(* Two systhreads profile different guards at once, each in its own
   context; the barriers keep both frame trees live together.  Each tree
   holds exactly its own render and closest joins. *)
let test_concurrent_profiles_exact () =
  let store = Store.Shredded.shred doc in
  let barrier () =
    let m = Mutex.create () and c = Condition.create () and n = ref 0 in
    fun () ->
      Mutex.lock m;
      incr n;
      if !n >= 2 then Condition.broadcast c
      else while !n < 2 do Condition.wait c m done;
      Mutex.unlock m
  in
  let both_in = barrier () and both_done = barrier () in
  let profile guard =
    Ctx.with_ctx (Ctx.create ()) (fun () ->
        snd
          (Ctx.profiled (fun () ->
               both_in ();
               ignore (Xmorph.Interp.transform ~enforce:false store guard);
               both_done ())))
  in
  let guards = [| "MORPH author [ name ]"; "MORPH name [ author ]" |] in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun i ->
        Thread.create (fun i -> results.(i) <- profile guards.(i)) i)
  in
  List.iter Thread.join threads;
  let joins frames =
    match Frames.lookup frames [ "render" ] with
    | None -> Alcotest.fail "no render frame"
    | Some render ->
        Alcotest.(check int) "one render per profile" 1 render.Frames.calls;
        List.filter_map
          (fun (f : Frames.frame) ->
            if String.starts_with ~prefix:"closest(" f.name then Some f.name
            else None)
          (Frames.ordered_children render)
  in
  Alcotest.(check (list string)) "first thread's joins only"
    [ "closest(data.rec.author->data.rec.name)" ] (joins results.(0));
  Alcotest.(check (list string)) "second thread's joins only"
    [ "closest(data.rec.name->data.rec.author)" ] (joins results.(1))

let suite =
  [
    Alcotest.test_case "frames merge by name" `Quick test_frame_merge;
    Alcotest.test_case "counts accumulate" `Quick test_counts_accumulate;
    Alcotest.test_case "self time within total" `Quick test_self_within_total;
    Alcotest.test_case "exceptions unwind the stack" `Quick
      test_exception_unwinds;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "reset discards frames" `Quick test_reset_discards;
    Alcotest.test_case "transform attribution" `Quick test_transform_profile;
    Alcotest.test_case "xquery attribution" `Quick test_xquery_profile;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "concurrent profiles are exact" `Quick
      test_concurrent_profiles_exact;
  ]
