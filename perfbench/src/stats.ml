(* Percentiles with the benchmark's admissibility rule.

   A percentile is the nearest-rank value: rank ceil(p/100 * n) of the n
   sorted samples.  It is reported only when at least [min_beyond] samples
   lie above that rank, so a tail figure always rests on ten or more
   observations instead of on the single slowest request of a run. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~n p =
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  max 1 (min n r)

let beyond ~n p = n - rank ~n p

let admissible ~n p = n > 0 && beyond ~n p >= min_beyond

let percentile a p =
  let n = Array.length a in
  if not (admissible ~n p) then None else Some a.(rank ~n p - 1)

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs
