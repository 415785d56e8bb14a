type 'a t = { cap : int; mutable slots : 'a array; mutable pushed : int }

let create cap = { cap = max 1 cap; slots = [||]; pushed = 0 }

(* Until the slot array reaches [cap] it is never wrapped, so slot [i]
   holds push [i] and growing is a plain copy.  Each step reads the
   fields once into locals: a racing push can then only lose a value,
   never index past the array it read. *)
let push r x =
  let n = r.pushed in
  let slots = r.slots in
  let len = Array.length slots in
  let slots =
    if n < len || len = r.cap then slots
    else begin
      (* [x] fills the fresh slots; no ['a] is available otherwise. *)
      let bigger = Array.make (min r.cap (max 8 (2 * len))) x in
      Array.blit slots 0 bigger 0 len;
      r.slots <- bigger;
      bigger
    end
  in
  slots.(n mod Array.length slots) <- x;
  r.pushed <- n + 1

let to_list r =
  let slots = r.slots in
  let len = Array.length slots in
  let n = r.pushed in
  if len = 0 then []
  else
    let first = max 0 (n - len) in
    let rec go k acc =
      if k < first then acc else go (k - 1) (slots.(k mod len) :: acc)
    in
    go (n - 1) []

let length r = min r.pushed r.cap

let clear r =
  r.slots <- [||];
  r.pushed <- 0
