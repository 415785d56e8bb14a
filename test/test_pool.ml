(* The xmutil domain pool: ordering, nesting, exceptions, sizing. *)

let with_jobs n f =
  let saved = Xmutil.Pool.jobs () in
  Xmutil.Pool.set_jobs n;
  Fun.protect f ~finally:(fun () -> Xmutil.Pool.set_jobs saved)

let test_sequential_default () =
  with_jobs 1 @@ fun () ->
  (* With one job the thunks run inline, left to right. *)
  let order = ref [] in
  let out =
    Xmutil.Pool.parallel
      (List.init 5 (fun i () ->
           order := i :: !order;
           i * i))
  in
  Alcotest.(check (list int)) "results in order" [ 0; 1; 4; 9; 16 ] out;
  Alcotest.(check (list int)) "ran left to right" [ 4; 3; 2; 1; 0 ] !order

let test_parallel_results_ordered () =
  with_jobs 4 @@ fun () ->
  let out = Xmutil.Pool.parallel (List.init 37 (fun i () -> i * 2)) in
  Alcotest.(check (list int)) "in input order" (List.init 37 (fun i -> i * 2)) out

let test_parallel_effects_complete () =
  with_jobs 4 @@ fun () ->
  let hits = Array.make 100 0 in
  ignore
    (Xmutil.Pool.parallel
       (List.init 100 (fun i () -> hits.(i) <- hits.(i) + 1)));
  Alcotest.(check bool) "every thunk ran exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_nested_parallel () =
  with_jobs 3 @@ fun () ->
  let out =
    Xmutil.Pool.parallel
      (List.init 4 (fun i () ->
           Xmutil.Pool.parallel (List.init 4 (fun k () -> (10 * i) + k))))
  in
  Alcotest.(check (list (list int)))
    "nested batches complete"
    (List.init 4 (fun i -> List.init 4 (fun k -> (10 * i) + k)))
    out

let test_exception_propagates () =
  with_jobs 2 @@ fun () ->
  let ran = Array.make 4 false in
  (match
     Xmutil.Pool.parallel
       (List.init 4 (fun i () ->
            ran.(i) <- true;
            if i = 1 || i = 2 then failwith (Printf.sprintf "task %d" i)))
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m ->
      (* Lowest-index failure wins, deterministically. *)
      Alcotest.(check string) "first failure" "task 1" m);
  Alcotest.(check bool) "batch ran to completion" true (Array.for_all Fun.id ran)

let test_set_jobs_clamps () =
  let saved = Xmutil.Pool.jobs () in
  Xmutil.Pool.set_jobs 0;
  Alcotest.(check int) "clamped below" 1 (Xmutil.Pool.jobs ());
  Xmutil.Pool.set_jobs 100000;
  Alcotest.(check bool) "clamped above" true (Xmutil.Pool.jobs () <= 64);
  Xmutil.Pool.set_jobs saved

let test_chunks () =
  Alcotest.(check (array (pair int int))) "even split" [| (0, 2); (2, 4) |]
    (Xmutil.Pool.chunks ~total:4 ~parts:2);
  Alcotest.(check (array (pair int int))) "remainder goes first"
    [| (0, 3); (3, 5); (5, 7) |]
    (Xmutil.Pool.chunks ~total:7 ~parts:3);
  Alcotest.(check (array (pair int int))) "more parts than items"
    [| (0, 1); (1, 2) |]
    (Xmutil.Pool.chunks ~total:2 ~parts:8);
  Alcotest.(check (array (pair int int))) "empty" [||]
    (Xmutil.Pool.chunks ~total:0 ~parts:4);
  (* Chunks always tile [0, total). *)
  List.iter
    (fun (total, parts) ->
      let bounds = Xmutil.Pool.chunks ~total ~parts in
      let covered =
        Array.fold_left
          (fun acc (s, e) ->
            match acc with Some p when p = s && e > s -> Some e | _ -> None)
          (Some 0) bounds
      in
      Alcotest.(check (option int))
        (Printf.sprintf "tiles %d/%d" total parts)
        (Some total) covered)
    [ (1, 1); (5, 2); (64, 7); (1000, 64) ]

let suite =
  [
    Alcotest.test_case "jobs=1 is sequential left-to-right" `Quick
      test_sequential_default;
    Alcotest.test_case "results keep input order" `Quick
      test_parallel_results_ordered;
    Alcotest.test_case "all effects complete" `Quick
      test_parallel_effects_complete;
    Alcotest.test_case "nested batches" `Quick test_nested_parallel;
    Alcotest.test_case "exceptions propagate deterministically" `Quick
      test_exception_propagates;
    Alcotest.test_case "set_jobs clamps" `Quick test_set_jobs_clamps;
    Alcotest.test_case "chunks tile the range" `Quick test_chunks;
  ]
