let rec ancestor (parent : int array) i ~hops =
  if hops = 0 then i else ancestor parent parent.(i) ~hops:(hops - 1)

let lca_level (parent : int array) x dx y dy =
  let x = if dx > dy then ancestor parent x ~hops:(dx - dy) else x in
  let y = if dy > dx then ancestor parent y ~hops:(dy - dx) else y in
  (* Both at depth [d] now: climb together until they meet. *)
  let rec meet x y d = if d = 0 || x = y then d else meet parent.(x) parent.(y) (d - 1) in
  meet x y (Int.min dx dy)

let level ~parent (a : int array) ~depth_a (b : int array) ~depth_b =
  let na = Array.length a and nb = Array.length b in
  let best = ref 0 and i = ref 0 and j = ref 0 in
  (* Each element is compared, before it is passed, with the first element
     of the other row not below it. *)
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    let l = lca_level parent x depth_a y depth_b in
    if l > !best then best := l;
    if x <= y then incr i else incr j
  done;
  !best

type runs = { keys : int array; offs : int array }

let no_runs = { keys = [||]; offs = [| 0 |] }

let runs ~parent ~hops (ids : int array) =
  let n = Array.length ids in
  if n = 0 then no_runs
  else begin
    (* One pass counts the runs, a second fills them in. *)
    let count = ref 1 and last = ref (ancestor parent ids.(0) ~hops) in
    for i = 1 to n - 1 do
      let a = ancestor parent ids.(i) ~hops in
      if a <> !last then begin
        incr count;
        last := a
      end
    done;
    let keys = Array.make !count 0 and offs = Array.make (!count + 1) n in
    let r = ref (-1) in
    for i = 0 to n - 1 do
      let a = ancestor parent ids.(i) ~hops in
      if !r < 0 || a <> keys.(!r) then begin
        incr r;
        keys.(!r) <- a;
        offs.(!r) <- i
      end
    done;
    { keys; offs }
  end

let rec bisect (a : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) < x then bisect a x (mid + 1) hi else bisect a x lo mid

(* The gallop probes [lo + 1], [lo + 2], [lo + 4], ... until one is not
   below [x], then bisects the last gap. *)
let rec gallop (a : int array) x prev step hi =
  let q = prev + step in
  if q < hi && a.(q) < x then gallop a x q (2 * step) hi
  else bisect a x (prev + 1) (Int.min hi (q + 1))

let seek a x lo hi = if lo >= hi || a.(lo) >= x then lo else gallop a x lo 1 hi

let find ~parent ~hops runs (nodes : int array) =
  let n = Array.length nodes and nkeys = Array.length runs.keys in
  let found = Array.make n (-1) in
  let g = ref 0 in
  for k = 0 to n - 1 do
    let a = ancestor parent nodes.(k) ~hops in
    (* The first node has no previous answer to gallop from. *)
    g := (if k = 0 then bisect else seek) runs.keys a !g nkeys;
    if !g < nkeys && runs.keys.(!g) = a then found.(k) <- !g
  done;
  found
