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
  Xmobs.Statdb.disable ();
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
      Xmobs.Statdb.disable ();
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
  ]
