(* The benchmark's own logic: the percentile rule, schedule determinism,
   self time from nested spans, and scaling by the host's speed. *)

open Perfbench

let samples n = Stats.sorted (List.init n (fun i -> float_of_int (i + 1)))

let test_percentile_rule () =
  (* p95 of 200 samples has exactly 10 beyond it: admitted. *)
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond ~n:200 95.);
  Alcotest.(check (option (float 0.))) "p95 of 200" (Some 190.)
    (Stats.percentile (samples 200) 95.);
  (* 199 samples leave only 9 beyond p95: refused. *)
  Alcotest.(check (option (float 0.))) "p95 of 199" None
    (Stats.percentile (samples 199) 95.);
  Alcotest.(check (option (float 0.))) "p99 of 999" None
    (Stats.percentile (samples 999) 99.);
  Alcotest.(check (option (float 0.))) "p99 of 1000" (Some 990.)
    (Stats.percentile (samples 1000) 99.);
  Alcotest.(check (option (float 0.))) "empty" None
    (Stats.percentile [||] 50.);
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median (samples 4))

let test_apportion () =
  let c = Sched.apportion [| 1.; 0.5; 1. /. 3. |] 100 in
  Alcotest.(check int) "sums to total" 100 (Array.fold_left ( + ) 0 c);
  Alcotest.(check (array int)) "largest remainder" [| 55; 27; 18 |] c

let spec =
  { Sched.requests = 1000; write_share = 0.03; hot_share = 0.8; hot = 6; tail = 20;
    windows = 1 }

let test_schedule_determinism () =
  Alcotest.(check bool) "serve: same seed" true
    (Sched.serve ~seed:7 spec = Sched.serve ~seed:7 spec);
  Alcotest.(check bool) "serve: other seed" false
    (Sched.serve ~seed:7 spec = Sched.serve ~seed:8 spec);
  let one s = Sched.oneshot ~seed:s ~docs:12 ~guards:5 ~ops:100 in
  Alcotest.(check bool) "oneshot: same seed" true (one 3 = one 3);
  Alcotest.(check bool) "oneshot: other seed" false (one 3 = one 4);
  Alcotest.(check int) "oneshot: whole cycles" 120 (Array.length (one 3));
  let q s =
    Sched.query_pairs ~seed:s ~pairs:120 ~guards:3 ~templates:2
      ~max_bound:(fun g -> 100 * (g + 1))
  in
  Alcotest.(check bool) "pairs: same seed" true (q 5 = q 5);
  Alcotest.(check bool) "pairs: other seed" false (q 5 = q 6)

let test_schedule_shares () =
  let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a in
  List.iter
    (fun seed ->
      let ops = Sched.serve ~seed spec in
      Alcotest.(check int) "requests" 1000 (Array.length ops);
      Alcotest.(check int) "writes" 30
        (count (function Sched.Write _ -> true | _ -> false) ops);
      Alcotest.(check int) "hot reads" 776
        (count (function Sched.Read g -> g < 6 | _ -> false) ops);
      Alcotest.(check int) "hottest guard" 317
        (count (function Sched.Read 0 -> true | _ -> false) ops))
    [ 1; 2; 3 ];
  (* Five blocks of 200, each apportioned on its own; write slots stay
     consecutive across blocks. *)
  let ops = Sched.serve ~seed:1 { spec with windows = 5 } in
  for b = 0 to 4 do
    let block = Array.sub ops (b * 200) 200 in
    Alcotest.(check int) "writes per block" 6
      (count (function Sched.Write _ -> true | _ -> false) block);
    Alcotest.(check int) "hottest guard per block" 63
      (count (function Sched.Read 0 -> true | _ -> false) block)
  done;
  Alcotest.(check (list int)) "write slots" (List.init 30 Fun.id)
    (Array.to_list ops |> List.filter_map (function Sched.Write w -> Some w | _ -> None));
  let pairs =
    Sched.query_pairs ~seed:1 ~pairs:300 ~guards:1 ~templates:1
      ~max_bound:(fun _ -> 1000)
  in
  Array.iter
    (fun p ->
      if p.Sched.bound < 1 || p.Sched.bound > 1000 then
        Alcotest.fail "bound out of range")
    pairs;
  (* Log-uniform: each full decade of [1, 1000] holds about a third. *)
  List.iter
    (fun d ->
      let n = count (fun p -> Sched.decade p.Sched.bound = d) pairs in
      if n < 90 || n > 110 then Alcotest.failf "decade %d holds %d of 300" d n)
    [ 0; 1; 2 ]

let span id parent start stop =
  { Spans.id; parent; name = "s" ^ string_of_int id; op = "op"; start; stop }

let test_self_time () =
  (* root 0..10 with children 1..4 and 3..6 (overlapping) and a grandchild
     inside the first child; a child poking out of its parent is clipped. *)
  let spans =
    [ span 1 0 0. 10.; span 2 1 1. 4.; span 3 1 3. 6.; span 4 2 1.5 2.5;
      span 5 1 9. 12. ]
  in
  let self = Spans.self_times spans in
  let of_id id =
    snd (List.find (fun ((s : Spans.span), _) -> s.id = id) self)
  in
  Alcotest.(check (float 1e-9)) "root" 4. (of_id 1);
  Alcotest.(check (float 1e-9)) "child with grandchild" 2. (of_id 2);
  Alcotest.(check (float 1e-9)) "leaf" 3. (of_id 3);
  Alcotest.(check (float 1e-9)) "grandchild" 1. (of_id 4);
  let by_op = Spans.self_by_op (spans @ [ { (span 6 0 20. 21.) with name = "s1"; op = "op2" } ]) in
  Alcotest.(check (list (float 1e-9))) "summed per op" [ 1.; 4. ]
    (List.sort compare (Hashtbl.find by_op "s1"))

let test_recorder () =
  Spans.enable ();
  Spans.with_op "a" (fun () ->
      Spans.with_span "outer" (fun () -> Spans.with_span "inner" ignore));
  let spans = Spans.all () in
  let find n = List.find (fun (s : Spans.span) -> s.name = n) spans in
  Alcotest.(check int) "inner parent" (find "outer").id (find "inner").parent;
  Alcotest.(check string) "op id" "a" (find "inner").op;
  Alcotest.(check int) "outer root" 0 (find "outer").parent

let test_host_scale () =
  let ms = 0.001 in
  (* Constant host: every time is scaled by ref_s / kernel time. *)
  let flat = Calib.of_samples (List.init 40 (fun i -> (float_of_int i, 4. *. ms))) in
  Alcotest.(check (float 1e-12)) "flat" (Calib.ref_s /. (4. *. ms)) (Calib.scale flat 12.);
  Alcotest.(check (float 1e-12)) "scaled duration" (0.05 *. Calib.ref_s /. (4. *. ms))
    (Calib.scaled flat ~start:3. 0.05);
  (* The host halves its speed at t = 20: the scale follows it, taken
     from the [neighbours] samples nearest in time. *)
  let step =
    Calib.of_samples
      (List.init 60 (fun i -> (float_of_int i, if i < 30 then 2. *. ms else 4. *. ms)))
  in
  Alcotest.(check (float 1e-12)) "before" (Calib.ref_s /. (2. *. ms)) (Calib.scale step 5.);
  Alcotest.(check (float 1e-12)) "after" (Calib.ref_s /. (4. *. ms)) (Calib.scale step 50.);
  Alcotest.(check (float 1e-12)) "at the step, half of each"
    (Calib.ref_s /. (3. *. ms)) (Calib.scale step 29.5);
  Alcotest.(check (float 1e-12)) "past the end" (Calib.ref_s /. (4. *. ms)) (Calib.scale step 100.);
  (* Fewer samples than neighbours: the median of all of them. *)
  let few = Calib.of_samples [ (0., 1. *. ms); (1., 9. *. ms); (2., 2. *. ms) ] in
  Alcotest.(check (float 1e-12)) "few" (Calib.ref_s /. (2. *. ms)) (Calib.scale few 1.);
  Alcotest.check_raises "no samples" (Invalid_argument "Calib.scale: no samples") (fun () ->
      ignore (Calib.scale (Calib.create ()) 0.));
  Alcotest.(check int) "kernel is fixed work" (Calib.kernel ()) (Calib.kernel ())

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ("sched",
       [ Alcotest.test_case "apportion" `Quick test_apportion;
         Alcotest.test_case "determinism" `Quick test_schedule_determinism;
         Alcotest.test_case "class shares" `Quick test_schedule_shares ]);
      ("spans",
       [ Alcotest.test_case "self time" `Quick test_self_time;
         Alcotest.test_case "recorder" `Quick test_recorder ]);
      ("calib", [ Alcotest.test_case "host scale" `Quick test_host_scale ]) ]
