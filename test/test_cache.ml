(* The two-tier serve cache: plan-tier reuse and bounding, the result
   tier's byte-budgeted LRU eviction matrix, and the headline contract —
   a cached response is byte-identical to a cold render of the current
   store generation, under interleaved value updates. *)

let doc_src =
  "<data><book><title>First</title><author><name>Ann</name></author>\
   <author><name>Bob</name></author></book><book><title>Second</title>\
   <author><name>Ann</name></author></book></data>"

let shred () = Store.Shredded.shred (Xml.Doc.of_string doc_src)

let with_cache budget f =
  Xmcache.enable ~budget_bytes:budget;
  Fun.protect ~finally:Xmcache.disable f

let cache_stats () =
  match Xmcache.stats () with
  | Some s -> s
  | None -> Alcotest.fail "cache unexpectedly disabled"

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let exec_body store guard =
  match Xmserve.Exec.execute ~source:"test" store guard with
  | Xmserve.Exec.Rendered { body; _ } -> body
  | Xmserve.Exec.Query_result { body; _ } -> body
  | Xmserve.Exec.Failed { message; _ } ->
      Alcotest.failf "execution failed: %s" message

(* ---------- disabled sink ---------- *)

let test_disabled_is_inert () =
  Xmcache.disable ();
  Alcotest.(check bool) "disabled" false (Xmcache.enabled ());
  Alcotest.(check bool) "no plan" true
    (Xmcache.find_plan ~guide_uid:0 ~guard_hash:"x" ~enforce:false = None);
  Alcotest.(check bool) "no result" true
    (Xmcache.find_result ~generation:0 ~guard_hash:"x" ~query_hash:""
       ~compact:false ~enforce:false
    = None);
  Xmcache.add_result ~generation:0 ~guard_hash:"x" ~query_hash:""
    ~compact:false ~enforce:false
    { Xmcache.body = "b"; is_query = false; classification = None;
      out_nodes = 0 };
  Alcotest.(check bool) "still no result" true
    (Xmcache.find_result ~generation:0 ~guard_hash:"x" ~query_hash:""
       ~compact:false ~enforce:false
    = None);
  Alcotest.(check bool) "no stats" true (Xmcache.stats () = None);
  Alcotest.(check bool) "json says disabled" true
    (Xmcache.to_json ()
    = Xmutil.Json.Obj [ ("enabled", Xmutil.Json.Bool false) ])

let test_enable_rejects_negative () =
  match Xmcache.enable ~budget_bytes:(-1) with
  | () -> Alcotest.fail "negative budget accepted"
  | exception Invalid_argument _ -> ()

(* ---------- tier 1: plans ---------- *)

let test_plan_roundtrip () =
  with_cache 65536 @@ fun () ->
  let store = shred () in
  let guide = Store.Shredded.guide store in
  let uid = Xml.Dataguide.uid guide in
  let plan = Xmorph.Interp.compile ~enforce:false guide "MORPH title" in
  Alcotest.(check bool) "miss before insert" true
    (Xmcache.find_plan ~guide_uid:uid ~guard_hash:"h" ~enforce:false = None);
  Xmcache.add_plan ~guide_uid:uid ~guard_hash:"h" ~enforce:false plan;
  (match Xmcache.find_plan ~guide_uid:uid ~guard_hash:"h" ~enforce:false with
  | Some p -> Alcotest.(check bool) "same compiled value" true (p == plan)
  | None -> Alcotest.fail "plan hit expected");
  (* The key is the full triple: a different shape, hash, or enforce
     setting misses. *)
  Alcotest.(check bool) "other uid misses" true
    (Xmcache.find_plan ~guide_uid:(uid + 1) ~guard_hash:"h" ~enforce:false
    = None);
  Alcotest.(check bool) "other hash misses" true
    (Xmcache.find_plan ~guide_uid:uid ~guard_hash:"g" ~enforce:false = None);
  Alcotest.(check bool) "other enforce misses" true
    (Xmcache.find_plan ~guide_uid:uid ~guard_hash:"h" ~enforce:true = None);
  let s = cache_stats () in
  Alcotest.(check int) "one plan resident" 1 s.Xmcache.plan_entries;
  Alcotest.(check int) "one hit" 1 s.Xmcache.plan_hits;
  Alcotest.(check int) "four misses" 4 s.Xmcache.plan_misses

let test_plan_tier_is_bounded () =
  with_cache 65536 @@ fun () ->
  let store = shred () in
  let guide = Store.Shredded.guide store in
  let plan = Xmorph.Interp.compile ~enforce:false guide "MORPH title" in
  let n = 4096 in
  for i = 1 to n do
    Xmcache.add_plan ~guide_uid:0
      ~guard_hash:(Printf.sprintf "h%d" i)
      ~enforce:false plan
  done;
  let s = cache_stats () in
  (* 16 shards x 64 plans each. *)
  Alcotest.(check bool) "bounded" true (s.Xmcache.plan_entries <= 1024);
  Alcotest.(check int) "evictions account for the rest"
    (n - s.Xmcache.plan_entries)
    s.Xmcache.plan_evictions

(* ---------- tier 2: eviction under budget ---------- *)

let entry body =
  { Xmcache.body; is_query = false; classification = None; out_nodes = 0 }

let add_body ~generation ~hash body =
  Xmcache.add_result ~generation ~guard_hash:hash ~query_hash:""
    ~compact:false ~enforce:false (entry body)

let find_body ~generation ~hash =
  Xmcache.find_result ~generation ~guard_hash:hash ~query_hash:""
    ~compact:false ~enforce:false

(* Insert bodies across the size spectrum; the resident bytes never
   exceed the budget, an over-budget body is refused outright, and the
   victim order is least-recently-used (a hit refreshes). *)
let test_eviction_under_budget () =
  let budget = 4096 in
  with_cache budget @@ fun () ->
  (* Size matrix: every insertion leaves bytes <= budget. *)
  List.iter
    (fun size ->
      add_body ~generation:0 ~hash:(Printf.sprintf "size%d" size)
        (String.make size 'x');
      Alcotest.(check bool)
        (Printf.sprintf "bytes within budget after %d-byte body" size)
        true
        ((cache_stats ()).Xmcache.bytes <= budget))
    [ 0; 1; 100; 1024; 2000; 3968; 5000 ];
  (* The 5000-byte body exceeds the whole budget: refused, not resident. *)
  Alcotest.(check bool) "over-budget body not cached" true
    (find_body ~generation:0 ~hash:"size5000" = None);
  (* Start afresh for the LRU-order check. *)
  Xmcache.enable ~budget_bytes:budget;
  (* Three 1200-byte bodies (1328 with key overhead) fill 3984 of 4096. *)
  List.iter
    (fun h -> add_body ~generation:1 ~hash:h (String.make 1200 h.[0]))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "three resident" 3
    (cache_stats ()).Xmcache.result_entries;
  (* Touch [a]: now [b] is the least recently used. *)
  Alcotest.(check bool) "a hits" true (find_body ~generation:1 ~hash:"a" <> None);
  add_body ~generation:1 ~hash:"d" (String.make 1200 'd');
  Alcotest.(check bool) "b evicted (LRU)" true
    (find_body ~generation:1 ~hash:"b" = None);
  Alcotest.(check bool) "a survived its refresh" true
    (find_body ~generation:1 ~hash:"a" <> None);
  Alcotest.(check bool) "c survived" true
    (find_body ~generation:1 ~hash:"c" <> None);
  Alcotest.(check bool) "d resident" true
    (find_body ~generation:1 ~hash:"d" <> None);
  let s = cache_stats () in
  Alcotest.(check int) "one eviction" 1 s.Xmcache.result_evictions;
  Alcotest.(check bool) "still within budget" true (s.Xmcache.bytes <= budget);
  (* Replacing a key keeps a single entry and the new body wins. *)
  add_body ~generation:1 ~hash:"d" "tiny";
  Alcotest.(check int) "replace keeps one entry" 3
    (cache_stats ()).Xmcache.result_entries;
  match find_body ~generation:1 ~hash:"d" with
  | Some e -> Alcotest.(check string) "new body served" "tiny" e.Xmcache.body
  | None -> Alcotest.fail "replaced entry missing"

(* ---------- end to end through Exec ---------- *)

let test_update_invalidates_results () =
  with_cache (1 lsl 20) @@ fun () ->
  let store = shred () in
  let guard = "MORPH title" in
  let cold = exec_body store guard in
  let warm = exec_body store guard in
  Alcotest.(check string) "warm byte-identical to cold" cold warm;
  let s = cache_stats () in
  Alcotest.(check int) "one result hit" 1 s.Xmcache.result_hits;
  Alcotest.(check int) "one plan hit" 1 s.Xmcache.plan_hits;
  (* Patch a title: the new store has a fresh generation, so the first
     execution against it misses and serves the new value. *)
  let guide = Store.Shredded.guide store in
  let title = List.hd (Xml.Dataguide.match_label guide "title") in
  let id = (Store.Shredded.sequence store title).(0) in
  let store2 = Store.Shredded.update_value store id "Patched" in
  Alcotest.(check bool) "generation moved" true
    (Store.Shredded.generation store2 <> Store.Shredded.generation store);
  let after = exec_body store2 guard in
  Alcotest.(check bool) "update visible" true
    (after <> cold && contains_substring after "Patched");
  let s2 = cache_stats () in
  Alcotest.(check int) "no extra result hit" 1 s2.Xmcache.result_hits;
  (* The shape is shared, so the compiled plan was reused. *)
  Alcotest.(check int) "plan reused across the update" 2 s2.Xmcache.plan_hits;
  (* And the old generation's entry still answers for the old store. *)
  Alcotest.(check string) "old generation still byte-identical" cold
    (exec_body store guard)

(* ---------- property: cached == cold under interleaved updates ---------- *)

type op = Update of int * string | Exec of int

let guards = [| "MORPH title"; "MORPH author [ name ]"; "MORPH name" |]

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 24)
      (oneof
         [ map2 (fun i v -> Update (i, Printf.sprintf "v%d" v))
             (int_range 0 5) (int_range 0 99);
           map (fun g -> Exec g) (int_range 0 (Array.length guards - 1)) ]))

(* Replay one op sequence; returns every served body in order. *)
let replay ops =
  let store = ref (shred ()) in
  let guide = Store.Shredded.guide !store in
  let updatable =
    Array.concat
      (List.map
         (fun label ->
           Array.concat
             (List.map
                (fun ty -> Store.Shredded.sequence !store ty)
                (Xml.Dataguide.match_label guide label)))
         [ "title"; "name" ])
  in
  List.map
    (function
      | Update (i, v) ->
          let id = updatable.(i mod Array.length updatable) in
          store := Store.Shredded.update_value !store id v;
          ""
      | Exec g -> exec_body !store guards.(g mod Array.length guards))
    ops

let prop_cached_equals_cold =
  QCheck2.Test.make ~name:"cached bodies = cold render of current generation"
    ~count:60 gen_ops (fun ops ->
      (* Guarantee at least one would-be hit per sequence. *)
      let ops = ops @ [ Exec 0; Exec 0 ] in
      Fun.protect ~finally:Xmcache.disable @@ fun () ->
      Xmcache.disable ();
      let cold = replay ops in
      Xmcache.enable ~budget_bytes:(1 lsl 20);
      let cached = replay ops in
      let hit = (cache_stats ()).Xmcache.result_hits > 0 in
      Xmcache.disable ();
      cold = cached && hit)

(* ---------- per-type generations ---------- *)

let type_of store label =
  List.hd (Xml.Dataguide.match_label (Store.Shredded.guide store) label)

let first_of store label = (Store.Shredded.sequence store (type_of store label)).(0)

(* Stamps move only on the types a call writes; siblings of one store
   share the stamps of the types neither wrote, and a loaded store shares
   none with the store it was saved from. *)
let test_generation_of () =
  let store = shred () in
  let title = type_of store "title" and name = type_of store "name" in
  let g = Store.Shredded.generation_of store in
  Alcotest.(check int) "no types: the shred's generation"
    (Store.Shredded.generation store) (g [||]);
  Alcotest.(check int) "every type stamped by the shred" (g [||]) (g [| title; name |]);
  Alcotest.(check int) "unknown types ignored" (g [||]) (g [| -1; 1000 |]);
  let a = Store.Shredded.update_value store (first_of store "title") "A" in
  let b = Store.Shredded.update_value store (first_of store "title") "B" in
  let ga = Store.Shredded.generation_of a and gb = Store.Shredded.generation_of b in
  Alcotest.(check int) "the write stamps its own generation"
    (Store.Shredded.generation a) (ga [| title |]);
  Alcotest.(check bool) "siblings differ on the written type" true
    (ga [| title |] <> gb [| title |]);
  Alcotest.(check int) "siblings share an unwritten type" (gb [| name |]) (ga [| name |]);
  Alcotest.(check int) "and the parent's stamp on it" (g [| name |]) (ga [| name |]);
  Alcotest.(check bool) "a set holding the written type moves" true
    (ga [| name; title |] <> g [| name; title |]);
  let same = Store.Shredded.update_values a [] in
  Alcotest.(check bool) "an empty batch mints a generation" true
    (Store.Shredded.generation same <> Store.Shredded.generation a);
  Alcotest.(check int) "and stamps nothing" (ga [| name; title |])
    (Store.Shredded.generation_of same [| name; title |]);
  let path = Filename.temp_file "xmorph_gen" ".store" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Store.Shredded.save a path;
  let loaded = Store.Shredded.load path in
  let gl = Store.Shredded.generation_of loaded in
  Alcotest.(check int) "load stamps every type with its generation"
    (Store.Shredded.generation loaded) (gl [| name; title |]);
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) ("loaded store shares nothing with " ^ what) true
        (List.for_all (fun tys -> gl tys <> other tys) [ [||]; [| name |]; [| title |] ]))
    [ ("its source", ga); ("the shredded store", g) ]

let exec_forced store guard =
  match Xmserve.Exec.execute ~source:"test" ~enforce:false store guard with
  | Xmserve.Exec.Rendered { body; _ } | Xmserve.Exec.Query_result { body; _ } -> body
  | Xmserve.Exec.Failed { message; _ } -> Alcotest.failf "execution failed: %s" message

let cold_body store guard =
  Xmcache.disable ();
  let body = exec_forced store guard in
  Xmcache.enable ~budget_bytes:(1 lsl 20);
  body

(* Warm [guard] on a fresh store, write [value] to the first instance of
   [label], execute again: whether that was a result hit, and whether its
   body is the cold body of the written store. *)
let after_write guard label value =
  with_cache (1 lsl 20) @@ fun () ->
  let store = shred () in
  ignore (exec_forced store guard);
  let hits () = (cache_stats ()).Xmcache.result_hits in
  let h0 = hits () in
  ignore (exec_forced store guard);
  Alcotest.(check int) (guard ^ ": warm hit") (h0 + 1) (hits ());
  let written = Store.Shredded.update_value store (first_of store label) value in
  let body = exec_forced written guard in
  let hit = hits () = h0 + 2 in
  let cold = cold_body written guard in
  (hit, body = cold, body <> cold_body store guard)

let test_unread_write_keeps_hit () =
  let hit, same, _ = after_write "MORPH title" "name" "Zed" in
  Alcotest.(check bool) "a write to an unread type keeps the hit" true hit;
  Alcotest.(check bool) "and the body is the written store's" true same

(* Types a body reads without emitting them: a write to each still
   misses, and the next body is the cold one (for the value filter and
   the ORDER-BY key, a different one). *)
let test_hidden_reads_miss () =
  List.iter
    (fun (what, guard, label, value, changes) ->
      let hit, same, changed = after_write guard label value in
      Alcotest.(check bool) (what ^ ": miss") false hit;
      Alcotest.(check bool) (what ^ ": cold body") true same;
      if changes then Alcotest.(check bool) (what ^ ": body changed") true changed)
    [ ("RESTRICT pattern", "MORPH (RESTRICT book [ author ]) [ title ]", "author", "x", false);
      ( "value filter", {|MORPH (RESTRICT book [ name = "Ann" ]) [ title ]|}, "name", "Zed",
        true );
      ("ORDER-BY key", "MORPH book [ title ] ORDER-BY name", "name", "A", true) ]

(* ---------- property: cached == cold under random guards and writes ---------- *)

(* A request is a guard with or without a query; a step runs one, or
   writes a value to a node. *)
type step = Write of int * string | Run of int

let queries = [ "count(//*)"; "/*/*[1]"; {|//*[. = "hello"]|}; "string(/*)" ]
let values = [ "hello"; "1984"; "A"; "x < y"; "" ]

(* Guards that read a type without emitting it: an ORDER-BY key, a
   value filter in a RESTRICT pattern.  Random guards seldom do.  The
   sorted or filtered type is one with several instances, and the other
   two are among its descendant types, so that a write to either can
   change what the guard keeps or its order. *)
let gen_hidden_read doc =
  QCheck2.Gen.(
    let tt = Xml.Doc.types doc in
    let types = List.init (Xml.Type_table.count tt) Fun.id in
    let rec below anc ty =
      match Xml.Type_table.parent tt ty with
      | Some p -> p = anc || below anc p
      | None -> false
    in
    let many = List.filter (fun ty -> Array.length (Xml.Doc.nodes_of_type doc ty) > 1) types in
    let* ta = oneofl (if many = [] then types else many) in
    let under = match List.filter (below ta) types with [] -> types | l -> l in
    let name ty = Xml.Type_table.qname tt ty in
    let* a = return (name ta) and* b = map name (oneofl under)
    and* c = map name (oneofl under) and* v = oneofl values in
    oneofl
      [ Printf.sprintf "MORPH %s [ %s ] ORDER-BY %s" a b c;
        Printf.sprintf "MORPH %s [ %s ] ORDER-BY %s desc" a b c;
        Printf.sprintf "MORPH (RESTRICT %s [ %s = %S ]) [ %s ]" a b v c;
        Printf.sprintf "MORPH %s [ %s = %S ]" a b v ])

(* Records: two to six [e] elements under one root, each with one to
   three fields of three names, so that ORDER-BY has siblings to sort
   and value filters have instances to tell apart. *)
let gen_records_doc =
  QCheck2.Gen.(
    let field =
      let* name = oneofl [ "k"; "v"; "w" ] and* text = oneofl values in
      return (Xml.Tree.Element { name; attrs = []; children = [ Xml.Tree.Text text ] })
    in
    let record =
      map
        (fun children -> Xml.Tree.Element { name = "e"; attrs = []; children })
        (list_size (int_range 1 3) field)
    in
    map
      (fun children -> Xml.Doc.of_tree (Xml.Tree.Element { name = "r"; attrs = []; children }))
      (list_size (int_range 2 6) record))

(* A generated document (one of [Gen]'s, a deeper one whose types
   repeat, or records); two to four requests,
   each a guard over the document's labels (a random one, or one that
   reads a type it does not emit), half of them with a query; and a
   sequence of runs and of writes.  A write goes to an instance of a
   type some guard reads, of a type none reads, or to any node. *)
let gen_case =
  QCheck2.Gen.(
    let* doc = oneof [ Gen.gen_doc; Test_loss.gen_shaped_doc; gen_records_doc ] in
    let tt = Xml.Doc.types doc in
    let labels = ref [] and qnames = ref [] in
    Xml.Type_table.iter tt (fun ty ->
        labels := Xml.Type_table.label tt ty :: !labels;
        qnames := Xml.Type_table.qname tt ty :: !qnames);
    let vocab =
      { Test_guard_prop.label = oneofl (!labels @ !qnames); literal = oneofl values;
        order_by = true }
    in
    let guard =
      frequency
        [ (1, map Xmorph.Ast.to_string (Test_guard_prop.gen_guard_over vocab));
          (2, gen_hidden_read doc) ]
    in
    let* requests =
      array_size (int_range 2 4)
        (pair guard (frequency [ (1, return None); (1, map Option.some (oneofl queries)) ]))
    in
    let guide = Xml.Dataguide.of_doc doc in
    let read =
      Array.concat
        (List.map
           (fun (g, _) ->
             try (Xmorph.Interp.compile ~enforce:false guide g).Xmorph.Interp.reads
             with _ -> [||])
           (Array.to_list requests))
    in
    let instances keep =
      Array.concat
        (List.init (Xml.Type_table.count tt) (fun ty ->
             if keep (Array.mem ty read) then Xml.Doc.nodes_of_type doc ty else [||]))
    in
    let target =
      frequency
        (List.filter_map
           (fun (w, ids) -> if Array.length ids = 0 then None else Some (w, oneofa ids))
           [ (2, instances Fun.id); (1, instances not);
             (1, Array.init (Xml.Doc.node_count doc) Fun.id) ])
    in
    let n = Array.length requests in
    let* steps =
      list_size (int_range 1 30)
        (frequency
           [ (3, map (fun r -> Run r) (int_bound (n - 1)));
             (2, map2 (fun i v -> Write (i, v)) target (oneofl values)) ])
    in
    (* Each request twice more at the end: a would-be hit per request. *)
    return (doc, requests, steps @ List.concat (List.init n (fun r -> [ Run r; Run r ]))))

let print_case (doc, requests, steps) =
  String.concat "\n"
    ((Xml.Printer.to_string (Xml.Doc.to_tree doc)
     :: Array.to_list
          (Array.map (fun (g, q) -> g ^ " ? " ^ Option.value q ~default:"-") requests))
    @ List.map
        (function
          | Write (i, v) -> Printf.sprintf "write %d %S" i v
          | Run r -> Printf.sprintf "run %d" r)
        steps)

let result_hits () =
  match Xmcache.stats () with Some s -> s.Xmcache.result_hits | None -> 0

(* Every served body, failures included, in order.  [survived] counts the
   result hits served after a write since the same request last ran:
   the hits a key on the whole store's generation would have missed. *)
let replay_case ?(survived = ref 0) (doc, requests, steps) =
  let store = ref (Store.Shredded.shred doc) in
  let writes = ref 0 and last_run = Array.make (Array.length requests) (-1) in
  List.filter_map
    (function
      | Write (i, v) ->
          store := Store.Shredded.update_value !store i v;
          incr writes;
          None
      | Run r ->
          let guard, query = requests.(r) and h0 = result_hits () in
          let body =
            match Xmserve.Exec.execute ~source:"test" ~enforce:false ?query !store guard with
            | Xmserve.Exec.Rendered { body; _ } | Xmserve.Exec.Query_result { body; _ } -> body
            | Xmserve.Exec.Failed { message; _ } -> "failed: " ^ message
          in
          if result_hits () > h0 && last_run.(r) <> !writes then incr survived;
          last_run.(r) <- !writes;
          Some body)
    steps

let test_cached_equals_cold_random () =
  let hits = ref 0 and survived = ref 0 and runs = ref 0 in
  let prop case =
    Fun.protect ~finally:Xmcache.disable @@ fun () ->
    Xmcache.disable ();
    let cold = replay_case case in
    Xmcache.enable ~budget_bytes:(1 lsl 20);
    let cached = replay_case ~survived case in
    hits := !hits + result_hits ();
    runs := !runs + List.length cached;
    cold = cached
  in
  QCheck2.Test.check_exn ~rand:(QCheck_base_runner.random_state ())
    (QCheck2.Test.make ~count:300 ~name:"cached bodies = cold execution under random writes"
       ~print:print_case (QCheck2.Gen.no_shrink gen_case) prop);
  Printf.printf "result-tier hits: %d of %d executions, %d of them after a write\n" !hits
    !runs !survived;
  Alcotest.(check bool) "some executions were served from the cache" true (!hits > 0);
  Alcotest.(check bool) "some hits outlived a write" true (!survived > 0)

let suite =
  [
    Alcotest.test_case "disabled sink is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "negative budget rejected" `Quick
      test_enable_rejects_negative;
    Alcotest.test_case "plan tier round-trips on the full key" `Quick
      test_plan_roundtrip;
    Alcotest.test_case "plan tier is entry-bounded" `Quick
      test_plan_tier_is_bounded;
    Alcotest.test_case "byte-budgeted LRU eviction matrix" `Quick
      test_eviction_under_budget;
    Alcotest.test_case "value update invalidates by generation" `Quick
      test_update_invalidates_results;
    QCheck_alcotest.to_alcotest prop_cached_equals_cold;
    Alcotest.test_case "generation_of over siblings, empty batch, load" `Quick
      test_generation_of;
    Alcotest.test_case "a write to an unread type keeps the hit" `Quick
      test_unread_write_keeps_hit;
    Alcotest.test_case "writes to read, unemitted types miss" `Quick test_hidden_reads_miss;
    Alcotest.test_case "cached = cold under random guards and writes" `Quick
      test_cached_equals_cold_random;
  ]
