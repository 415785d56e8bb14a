open Xmutil

(* The three scales in use, with the formulas each module computed before
   they shared one: [mid + round (per_octave * log2 v)] clamped, and
   [2 ** ((i - mid) / per_octave)]. *)
let scales = [ (8, 256, 512); (4, 96, 192); (4, 32, 128) ]

let reference_index (per, mid, count) v =
  if v <= 0.0 then 0
  else
    let i = mid + int_of_float (Float.round (float_of_int per *. Float.log2 v)) in
    if i < 0 then 0 else if i >= count then count - 1 else i

let test_index_and_value () =
  let rng = Random.State.make [| 48 |] in
  List.iter
    (fun ((per, mid, count) as k) ->
      let s = Logscale.make ~per_octave:per ~mid ~count in
      let values =
        [ 0.0; -1.0; 1.0; 1e-300; 1e300; infinity ]
        @ List.init 2000 (fun _ -> Float.exp2 (Random.State.float rng 160.0 -. 80.0))
      in
      List.iter
        (fun v ->
          Alcotest.(check int) (Printf.sprintf "index %g" v) (reference_index k v)
            (Logscale.index s v))
        values;
      for i = 0 to count - 1 do
        let v = Logscale.value s i in
        Alcotest.(check (float 0.)) "value = 2 ** ((i - mid) / per_octave)"
          (Float.pow 2.0 (float_of_int (i - mid) /. float_of_int per))
          v;
        Alcotest.(check int) "index (value i) = i" i (Logscale.index s v)
      done)
    scales

let test_rank () =
  let naive counts n q =
    if n = 0 then None
    else
      let rank = q *. float_of_int (n - 1) in
      let cum = ref 0 and found = ref None in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if !found = None && float_of_int !cum > rank then found := Some i)
        counts;
      !found
  in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 300 do
    let counts = Array.init 16 (fun _ -> if Random.State.bool rng then 0 else Random.State.int rng 5) in
    let n = Array.fold_left ( + ) 0 counts in
    List.iter
      (fun q ->
        Alcotest.(check (option int)) "rank = naive scan" (naive counts n q)
          (Logscale.rank counts n q))
      [ 0.0; 0.5; 0.95; 0.99; 1.0 ]
  done;
  Alcotest.(check (option int)) "no observations" None (Logscale.rank [| 3 |] 0 0.5);
  Alcotest.(check (option int)) "counts short of n" None (Logscale.rank [| 1; 1 |] 10 0.9)

let suite =
  [
    Alcotest.test_case "index and value = the formulas they replaced" `Quick
      test_index_and_value;
    Alcotest.test_case "rank = a cumulative scan" `Quick test_rank;
  ]
