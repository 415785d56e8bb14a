(* Seeded operation schedules.

   Every workload runs a fixed list of operations made here from the seed
   alone.  Class counts are apportioned exactly (largest remainder), and
   only the order, the concrete sizes within each stratum, and the
   generated document contents depend on the seed: two seeds therefore do
   the same amount of each kind of work, which keeps medians and tail
   percentiles steady from seed to seed while still exercising different
   inputs. *)

module Prng = Xmutil.Prng

let apportion weights total =
  let sum = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> w /. sum *. float_of_int total) weights in
  let counts = Array.map truncate exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  let order = Array.init (Array.length weights) Fun.id in
  let rem i = exact.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> Float.compare (rem b) (rem a)) order;
  for k = 0 to short - 1 do
    let i = order.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let round_up_to ~multiple n = (n + multiple - 1) / multiple * multiple

(* ---------- oneshot ---------- *)

type oneshot_op = { doc : int; guard : int }

let oneshot ~seed ~docs ~guards ~ops =
  let rng = Prng.create seed in
  let cycle = docs * guards in
  let ops = round_up_to ~multiple:cycle (max ops 1) in
  Array.concat
    (List.init (ops / cycle) (fun _ ->
         let a = Array.init cycle (fun i -> { doc = i / guards; guard = i mod guards }) in
         Prng.shuffle rng a;
         a))

(* ---------- serve-mix ---------- *)

type serve_op = Read of int | Write of int

type serve_spec = {
  requests : int;
  write_share : float;
  hot_share : float;  (** share of reads that go to the hot set *)
  hot : int;  (** hot guards, pool indices [0, hot) with Zipf weights *)
  tail : int;  (** tail guards, pool indices [hot, hot + tail), uniform *)
  windows : int;  (** consecutive, identically apportioned blocks *)
}

(* Reads are a shuffled multiset with exact per-guard counts (Zipf 1/(i+1)
   over the hot set, uniform over the tail).  Writes sit one per stride of
   the request list at a seeded offset inside each stride, so every run
   invalidates the result tier equally often.  The list is [windows]
   consecutive blocks, each apportioned exactly, so a statistic taken per
   block sees the same mix in every block. *)
let serve_block rng spec ~requests ~first_write =
  let writes = int_of_float (Float.round (spec.write_share *. float_of_int requests)) in
  let reads = requests - writes in
  let hot_reads = int_of_float (Float.round (spec.hot_share *. float_of_int reads)) in
  let hot_counts =
    apportion (Array.init spec.hot (fun i -> 1. /. float_of_int (i + 1))) hot_reads
  in
  let tail_counts = apportion (Array.make spec.tail 1.) (reads - hot_reads) in
  let read_ops =
    Array.concat
      (Array.to_list (Array.mapi (fun g c -> Array.make c (Read g)) hot_counts)
      @ Array.to_list
          (Array.mapi (fun g c -> Array.make c (Read (spec.hot + g))) tail_counts))
  in
  Prng.shuffle rng read_ops;
  let is_write = Array.make requests false in
  if writes > 0 then begin
    let stride = requests / writes in
    for w = 0 to writes - 1 do
      is_write.((w * stride) + Prng.int rng stride) <- true
    done
  end;
  let r = ref 0 and w = ref first_write in
  Array.map
    (fun wr ->
      if wr then begin
        incr w;
        Write (!w - 1)
      end
      else begin
        incr r;
        read_ops.(!r - 1)
      end)
    is_write

let serve ~seed spec =
  let rng = Prng.create seed in
  let per = spec.requests / spec.windows in
  let blocks = ref [] and first_write = ref 0 in
  for _ = 1 to spec.windows do
    let b = serve_block rng spec ~requests:per ~first_write:!first_write in
    Array.iter (function Write _ -> incr first_write | Read _ -> ()) b;
    blocks := b :: !blocks
  done;
  Array.concat (List.rev !blocks)

(* ---------- guarded-query ---------- *)

type pair = { pguard : int; template : int; bound : int }

(* Log-uniform bounds in [1, max_bound], one draw per stratum of the log
   range, so selectivity is continuous and every decade is covered in
   proportion to its width. *)
let log_uniform rng ~n ~max_bound =
  let span = log (float_of_int (max max_bound 1)) in
  Array.init n (fun i ->
      let u = (float_of_int i +. Prng.float rng 1.) /. float_of_int n in
      max 1 (min max_bound (int_of_float (Float.round (exp (u *. span))))))

let query_pairs ~seed ~pairs ~guards ~templates ~max_bound =
  let rng = Prng.create seed in
  let combos = guards * templates in
  let per = max 1 (pairs / combos) in
  let out =
    Array.concat
      (List.init combos (fun c ->
           let pguard = c / templates and template = c mod templates in
           Array.map
             (fun bound -> { pguard; template; bound })
             (log_uniform rng ~n:per ~max_bound:(max_bound pguard))))
  in
  Prng.shuffle rng out;
  out

let decade bound = int_of_float (Float.log10 (float_of_int bound))
