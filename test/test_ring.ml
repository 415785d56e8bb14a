(* The bounded ring against a list model: after any pushes it holds the
   last [min n cap] values, oldest first, and never more than [cap]. *)

module Ring = Xmutil.Ring

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let prop_matches_list_model =
  QCheck2.Test.make ~name:"ring keeps the last min n cap values" ~count:500
    QCheck2.Gen.(
      int_range 1 16 >>= fun cap ->
      pair (return cap) (list_size (int_range 0 (3 * cap)) small_nat))
    (fun (cap, xs) ->
      let r = Ring.create cap in
      let bounded = ref true in
      List.iter
        (fun x ->
          Ring.push r x;
          if Ring.length r > cap then bounded := false)
        xs;
      let n = List.length xs in
      let expected = drop (n - min n cap) xs in
      let kept = Ring.to_list r = expected && Ring.length r = min n cap in
      Ring.clear r;
      !bounded && kept && Ring.to_list r = [] && Ring.length r = 0)

let suite = [ QCheck_alcotest.to_alcotest prop_matches_list_model ]
