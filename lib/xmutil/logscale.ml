type t = { per_octave : float; mid : int; count : int }

let make ~per_octave ~mid ~count = { per_octave = float_of_int per_octave; mid; count }

(* A direct computation, no closure and no allocation, inlined at its
   call sites: the metrics registry and the rolling series call it on
   every served request. *)
let[@inline] index s v =
  if v <= 0.0 then 0
  else
    let i = s.mid + int_of_float (Float.round (s.per_octave *. Float.log2 v)) in
    if i < 0 then 0 else if i >= s.count then s.count - 1 else i

let value s i = Float.exp2 (float_of_int (i - s.mid) /. s.per_octave)

let rank counts n q =
  let rank = q *. float_of_int (n - 1) in
  let rec go i cum =
    if i >= Array.length counts then None
    else
      let cum = cum + counts.(i) in
      if float_of_int cum > rank then Some i else go (i + 1) cum
  in
  if n = 0 then None else go 0 0
