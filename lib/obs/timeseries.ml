(* Rolling per-second time series over a counter or histogram.

   The cumulative registry (Metrics) answers since-start questions; this
   module answers the time-resolved ones the paper's own evaluation asks
   (Figs. 11-13 sample I/O *while* a transformation runs): what is the
   request rate right now, what is p95 latency over the last window, did
   the burst decay.

   Representation: a ring of [window] one-second slots indexed by
   [epoch mod window].  Each slot carries a count, a sum, and (for
   histogram kind) a coarse log-scale bucket array.  A rolling aggregate
   over the live slots is maintained incrementally, so writes are O(1):
   take the series mutex, rotate at most the one slot the write lands in,
   bump slot + aggregate.  Reads expire every stale slot first (O(window)
   worst case), which is fine for the handful of /debug and health-check
   readers.

   The per-slot histogram uses 4 buckets per octave (vs the registry's 8):
   a windowed percentile feeding a dashboard or an SLO check does not need
   better than ~20 % resolution, and the slot arrays are what a long
   window multiplies.

   Clocks are injectable per series so window math is unit-testable
   against synthetic time; the default is [Unix.gettimeofday]. *)

type kind = Counter | Histogram

let scale = Xmutil.Logscale.make ~per_octave:4 ~mid:96 ~count:192

type slot = {
  mutable s_epoch : int; (* the second this slot holds; -1 when empty *)
  mutable s_n : int;
  mutable s_sum : float;
  s_hist : int array; (* [||] for Counter kind *)
}

type t = {
  kind : kind;
  window : int; (* seconds *)
  clock : unit -> float;
  lock : Mutex.t;
  slots : slot array;
  (* rolling aggregate over the live slots *)
  mutable agg_n : int;
  mutable agg_sum : float;
  agg_hist : int array;
  mutable lifetime : int; (* total count since creation, never expired *)
}

let window t = t.window

let create ?(window = 300) ?clock kind =
  let window = if window < 1 then 1 else if window > 86400 then 86400 else window in
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  let mk_hist () = if kind = Histogram then Array.make scale.count 0 else [||] in
  {
    kind;
    window;
    clock;
    lock = Mutex.create ();
    slots =
      Array.init window (fun _ ->
          { s_epoch = -1; s_n = 0; s_sum = 0.0; s_hist = mk_hist () });
    agg_n = 0;
    agg_sum = 0.0;
    agg_hist = mk_hist ();
    lifetime = 0;
  }

(* ---------- writes (lock held) ---------- *)

let clear_slot t s =
  if s.s_epoch >= 0 then begin
    t.agg_n <- t.agg_n - s.s_n;
    t.agg_sum <- t.agg_sum -. s.s_sum;
    if t.kind = Histogram then
      Array.iteri
        (fun i c -> if c <> 0 then t.agg_hist.(i) <- t.agg_hist.(i) - c)
        s.s_hist;
    s.s_epoch <- -1;
    s.s_n <- 0;
    s.s_sum <- 0.0;
    if t.kind = Histogram then Array.fill s.s_hist 0 scale.count 0
  end

(* A slot is stale when it fell off the back of the window — or when it
   sits in the *future*, which happens after a backward wall-clock jump
   (NTP step, VM resume).  Future slots would otherwise linger in the
   aggregate until the clock caught back up to them, polluting every
   windowed read in between. *)
let expire t now_s =
  Array.iter
    (fun s ->
      if s.s_epoch >= 0 && (s.s_epoch <= now_s - t.window || s.s_epoch > now_s)
      then clear_slot t s)
    t.slots

let slot_for t now_s =
  let s = t.slots.(((now_s mod t.window) + t.window) mod t.window) in
  if s.s_epoch <> now_s then begin
    clear_slot t s;
    s.s_epoch <- now_s
  end;
  s

let add t n v hist_one =
  let now_s = int_of_float (t.clock ()) in
  Mutex.lock t.lock;
  let s = slot_for t now_s in
  s.s_n <- s.s_n + n;
  s.s_sum <- s.s_sum +. v;
  t.agg_n <- t.agg_n + n;
  t.agg_sum <- t.agg_sum +. v;
  if hist_one && t.kind = Histogram then begin
    let i = Xmutil.Logscale.index scale v in
    s.s_hist.(i) <- s.s_hist.(i) + 1;
    t.agg_hist.(i) <- t.agg_hist.(i) + 1
  end;
  t.lifetime <- t.lifetime + n;
  Mutex.unlock t.lock

let bump ?(by = 1) t = add t by (float_of_int by) false

let record t v = add t 1 v true

(* ---------- reads ---------- *)

let with_window t f =
  let now_s = int_of_float (t.clock ()) in
  Mutex.lock t.lock;
  expire t now_s;
  let x = f now_s in
  Mutex.unlock t.lock;
  x

let lifetime t = with_window t (fun _ -> t.lifetime)

let rate t =
  with_window t (fun _ -> float_of_int t.agg_n /. float_of_int t.window)

(* When n > 0 the cumulative count always crosses the rank before the
   scan ends, so it cannot come back empty. *)
let pct_of_hist hist n q =
  Option.map (Xmutil.Logscale.value scale) (Xmutil.Logscale.rank hist n q)

(* ---------- sub-window reads ----------

   Alert rules and the served-query stream's readers want the last
   k <= window seconds.  A span covering the whole ring is the rolling
   aggregate itself — O(1) apart from expiry; a shorter span walks its k
   live slots directly (the lock is held and expiry has run, so a slot
   counts iff its epoch matches exactly), summing a histogram only when
   asked for one. *)

let last_locked t now_s k ~hist =
  if k >= t.window then (t.agg_n, t.agg_sum, t.agg_hist)
  else begin
    let n = ref 0 and sum = ref 0.0 in
    let h =
      if hist && t.kind = Histogram then Array.make scale.count 0 else [||]
    in
    for off = 0 to max 1 k - 1 do
      let e = now_s - off in
      if e >= 0 then begin
        let s = t.slots.(e mod t.window) in
        if s.s_epoch = e then begin
          n := !n + s.s_n;
          sum := !sum +. s.s_sum;
          if Array.length h > 0 then
            Array.iteri (fun i c -> if c <> 0 then h.(i) <- h.(i) + c) s.s_hist
        end
      end
    done;
    (!n, !sum, h)
  end

let count_last t k =
  with_window t (fun now_s ->
      let n, _, _ = last_locked t now_s k ~hist:false in
      n)

let sum_last t k =
  with_window t (fun now_s ->
      let _, sum, _ = last_locked t now_s k ~hist:false in
      sum)

let percentile_last t k q =
  if t.kind <> Histogram then None
  else
    with_window t (fun now_s ->
        let n, _, h = last_locked t now_s k ~hist:true in
        pct_of_hist h n q)

let count_in_window t = count_last t t.window

let sum_in_window t = sum_last t t.window

let percentile t q = percentile_last t t.window q

(* Two-series ratio, e.g. errors / requests.  Each series is read in its
   own lock scope, never both at once — holding two series locks in
   caller-chosen order is how deadlocks are born.  The reads are a few
   microseconds apart; for per-second slot math that skew is noise. *)
let ratio ?last_s num den =
  let count t = count_last t (Option.value last_s ~default:t.window) in
  let d = count den in
  if d = 0 then None else Some (float_of_int (count num) /. float_of_int d)

let error_budget_burn ~objective ?window_s err total =
  if objective <= 0.0 then None
  else
    match ratio ?last_s:window_s err total with
    | None -> None
    | Some r -> Some (r /. objective)

(* ---------- JSON ---------- *)

(* Per-second counts for the last [min span 60] seconds, oldest first:
   enough for a dashboard sparkline without dumping an hour-long ring. *)
let seconds_locked t now_s span =
  let m = min span 60 in
  List.init m (fun i ->
      let e = now_s - (m - 1 - i) in
      if e < 0 then Xmutil.Json.Int 0
      else
        let s = t.slots.(e mod t.window) in
        Xmutil.Json.Int (if s.s_epoch = e then s.s_n else 0))

let to_json ?last_s t =
  let span = max 1 (min (Option.value last_s ~default:t.window) t.window) in
  with_window t (fun now_s ->
      let n, sum, hist = last_locked t now_s span ~hist:true in
      let pct q = match pct_of_hist hist n q with Some v -> v | None -> 0.0 in
      Xmutil.Json.Obj
        ([ ("kind",
            Xmutil.Json.String
              (match t.kind with Counter -> "counter" | Histogram -> "histogram"));
           ("window_s", Xmutil.Json.Int span);
           ("count", Xmutil.Json.Int n);
           ("rate", Xmutil.Json.Float (float_of_int n /. float_of_int span));
           ("sum", Xmutil.Json.Float sum);
           ("lifetime", Xmutil.Json.Int t.lifetime) ]
        @ (match t.kind with
          | Counter -> []
          | Histogram ->
              [ ("p50", Xmutil.Json.Float (pct 0.5));
                ("p95", Xmutil.Json.Float (pct 0.95));
                ("p99", Xmutil.Json.Float (pct 0.99)) ])
        @ [ ("seconds", Xmutil.Json.List (seconds_locked t now_s span)) ]))
