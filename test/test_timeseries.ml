(* Rolling time-series window math and the SLO rules, both against
   synthetic clocks: rates decay as the window slides, the ring evicts on
   wrap-around, windowed percentiles track only live slots, and health
   degrades/recovers with hysteresis at the exact instants the SLO
   promises. *)

module Ts = Xmobs.Timeseries
module Alerts = Xmobs.Alerts
module Slo = Xmserve.Slo

(* A series on a hand-cranked clock. *)
let fake () =
  let now = ref 0.0 in
  (now, fun () -> !now)

let test_counter_rate_and_decay () =
  let now, clock = fake () in
  let t = Ts.create ~window:10 ~clock Ts.Counter in
  Alcotest.(check int) "empty window" 0 (Ts.count_in_window t);
  Alcotest.(check (float 0.0)) "empty rate" 0.0 (Ts.rate t);
  for _ = 1 to 5 do
    Ts.bump t
  done;
  Ts.bump ~by:15 t;
  Alcotest.(check int) "counts accumulate in one second" 20
    (Ts.count_in_window t);
  Alcotest.(check (float 1e-9)) "rate = count / window" 2.0 (Ts.rate t);
  (* Slide half the window: the burst is still live. *)
  now := 5.0;
  Ts.bump t;
  Alcotest.(check int) "burst still in window" 21 (Ts.count_in_window t);
  (* Slide past the burst's slot but not the second write's. *)
  now := 12.0;
  Alcotest.(check int) "old slot expired, newer survives" 1
    (Ts.count_in_window t);
  (* Slide past everything: the window drains to zero... *)
  now := 100.0;
  Alcotest.(check int) "window fully drained" 0 (Ts.count_in_window t);
  Alcotest.(check (float 0.0)) "rate back to zero" 0.0 (Ts.rate t);
  (* ...but the lifetime total never expires. *)
  Alcotest.(check int) "lifetime survives expiry" 21 (Ts.lifetime t)

(* Wrap-around: writing at t and t + window lands in the same ring slot;
   the second write must evict the first, not add to it. *)
let test_ring_wraparound_evicts () =
  let now, clock = fake () in
  let t = Ts.create ~window:5 ~clock Ts.Counter in
  Ts.bump ~by:100 t;
  now := 5.0;
  (* same slot index (5 mod 5 = 0 mod 5), different epoch *)
  Ts.bump ~by:3 t;
  Alcotest.(check int) "stale slot evicted on reuse" 3 (Ts.count_in_window t);
  Alcotest.(check int) "lifetime keeps both" 103 (Ts.lifetime t)

let test_histogram_percentiles_over_window () =
  let now, clock = fake () in
  let t = Ts.create ~window:10 ~clock Ts.Histogram in
  Alcotest.(check bool) "empty window has no percentile" true
    (Ts.percentile t 0.5 = None);
  (* 100 cheap observations now, one huge outlier... *)
  for _ = 1 to 100 do
    Ts.record t 0.010
  done;
  now := 4.0;
  Ts.record t 10.0;
  let p95 =
    match Ts.percentile t 0.95 with
    | Some v -> v
    | None -> Alcotest.fail "p95 missing"
  in
  Alcotest.(check bool) "p95 tracks the cheap majority" true
    (p95 < 0.050);
  let p99 =
    match Ts.percentile t 0.99 with
    | Some v -> v
    | None -> Alcotest.fail "p99 missing"
  in
  Alcotest.(check bool) "p99 still below the outlier" true (p99 < 1.0);
  (* ...slide the cheap slot out of the window: only the outlier remains,
     so the median leaps to it. *)
  now := 12.0;
  let p50 =
    match Ts.percentile t 0.5 with
    | Some v -> v
    | None -> Alcotest.fail "p50 missing after expiry"
  in
  Alcotest.(check bool) "expiry leaves only the outlier" true (p50 > 5.0);
  Alcotest.(check (float 1e-9)) "sum follows the window" 10.0
    (Ts.sum_in_window t);
  (* Log-scale buckets quantize ~20 %: check the ballpark, not equality. *)
  Alcotest.(check bool) "p50 within bucket resolution of 10" true
    (p50 < 13.0)

(* Backward clock jump: writes land at t=50, then the clock steps back to
   t=10.  The future-epoch slots must be evicted at the next read, not
   linger in the aggregate until the clock catches back up. *)
let test_backward_clock_jump_evicts_future () =
  let now, clock = fake () in
  let t = Ts.create ~window:30 ~clock Ts.Counter in
  now := 50.0;
  Ts.bump ~by:7 t;
  Alcotest.(check int) "write visible at its own time" 7 (Ts.count_in_window t);
  now := 10.0;
  Alcotest.(check int) "future slots evicted after backward jump" 0
    (Ts.count_in_window t);
  (* A write at the stepped-back time starts a clean window. *)
  Ts.bump ~by:2 t;
  Alcotest.(check int) "fresh write after the jump counts alone" 2
    (Ts.count_in_window t);
  Alcotest.(check int) "lifetime keeps both sides of the jump" 9
    (Ts.lifetime t)

(* Idle wraparound: an idle gap of several whole windows brings the clock
   back to the same ring index.  The stale slot's epoch no longer matches,
   so neither whole-window nor last-k reads may count it. *)
let test_idle_wraparound_reads_clean () =
  let now, clock = fake () in
  let t = Ts.create ~window:5 ~clock Ts.Counter in
  Ts.bump ~by:100 t;
  (* 15 mod 5 = 0 mod 5: same slot index, three windows later. *)
  now := 15.0;
  Alcotest.(check int) "count_last sees nothing after idle wrap" 0
    (Ts.count_last t 5);
  Alcotest.(check int) "window count agrees" 0 (Ts.count_in_window t)

let test_sub_window_reads () =
  let now, clock = fake () in
  let t = Ts.create ~window:60 ~clock Ts.Histogram in
  (* Old burst of slow queries, then a recent run of fast ones. *)
  for _ = 1 to 10 do
    Ts.record t 1.0
  done;
  now := 30.0;
  for _ = 1 to 10 do
    Ts.record t 0.010
  done;
  Alcotest.(check int) "whole window sees both bursts" 20
    (Ts.count_in_window t);
  Alcotest.(check int) "last 5s sees only the recent burst" 10
    (Ts.count_last t 5);
  Alcotest.(check bool) "last-5s sum tracks the recent burst" true
    (Ts.sum_last t 5 < 1.0);
  (* Whole-window p95 is dominated by the slow half; the last-5s p95 must
     track only the fast burst. *)
  (match Ts.percentile_last t 5 0.95 with
  | Some v -> Alcotest.(check bool) "last-5s p95 is fast" true (v < 0.1)
  | None -> Alcotest.fail "last-5s p95 missing");
  (match Ts.percentile t 0.95 with
  | Some v -> Alcotest.(check bool) "window p95 is slow" true (v > 0.5)
  | None -> Alcotest.fail "window p95 missing");
  (* k larger than the window clamps instead of reading wild slots; k at
     or past the window reads the rolling aggregate, and must agree with
     the whole-window reads. *)
  Alcotest.(check int) "k clamps to the window" 20 (Ts.count_last t 1000);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "count_last %d = count_in_window" k)
        (Ts.count_in_window t) (Ts.count_last t k);
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "percentile_last %d = percentile" k)
        (Ts.percentile t 0.95)
        (Ts.percentile_last t k 0.95))
    [ 60; 61; 1000 ];
  (* Empty span: percentile over seconds with no data is None. *)
  now := 300.0;
  Alcotest.(check bool) "empty span has no percentile" true
    (Ts.percentile_last t 5 0.95 = None)

let test_ratio_and_burn () =
  let now, clock = fake () in
  let err = Ts.create ~window:60 ~clock Ts.Counter in
  let total = Ts.create ~window:60 ~clock Ts.Counter in
  Alcotest.(check bool) "no traffic: ratio is None" true
    (Ts.ratio err total = None);
  Alcotest.(check bool) "no traffic: burn is None" true
    (Ts.error_budget_burn ~objective:0.01 err total = None);
  Ts.bump ~by:100 total;
  Ts.bump ~by:10 err;
  (match Ts.ratio err total with
  | Some r -> Alcotest.(check (float 1e-9)) "ratio = err/total" 0.1 r
  | None -> Alcotest.fail "ratio missing");
  (* 10 % observed errors against a 1 % budget burns 10x. *)
  (match Ts.error_budget_burn ~objective:0.01 err total with
  | Some b -> Alcotest.(check (float 1e-9)) "burn = ratio/objective" 10.0 b
  | None -> Alcotest.fail "burn missing");
  Alcotest.(check bool) "non-positive objective is None" true
    (Ts.error_budget_burn ~objective:0.0 err total = None);
  (* Restricting to a recent sub-window excludes the old errors. *)
  now := 30.0;
  Ts.bump ~by:50 total;
  match Ts.error_budget_burn ~objective:0.01 ~window_s:5 err total with
  | Some b -> Alcotest.(check (float 1e-9)) "recent window burns clean" 0.0 b
  | None -> Alcotest.fail "recent burn missing"

let test_counter_has_no_percentile () =
  let _, clock = fake () in
  let t = Ts.create ~window:5 ~clock Ts.Counter in
  Ts.bump ~by:9 t;
  Alcotest.(check bool) "counter kind: percentile is None" true
    (Ts.percentile t 0.5 = None)

let test_window_clamped () =
  let _, clock = fake () in
  let t = Ts.create ~window:0 ~clock Ts.Counter in
  Alcotest.(check int) "window floor is one second" 1 (Ts.window t);
  let t2 = Ts.create ~window:1_000_000 ~clock Ts.Counter in
  Alcotest.(check int) "window ceiling is a day" 86400 (Ts.window t2)

let field j name =
  match j with Xmutil.Json.Obj fs -> List.assoc_opt name fs | _ -> None

let test_json_roundtrip () =
  let now, clock = fake () in
  let t = Ts.create ~window:10 ~clock Ts.Histogram in
  Ts.record t 0.002;
  now := 1.0;
  Ts.record t 0.004;
  Ts.record t 0.004;
  let text = Xmutil.Json.to_string (Ts.to_json t) in
  let j = Xmutil.Json.of_string text in
  Alcotest.(check bool) "kind exported" true
    (field j "kind" = Some (Xmutil.Json.String "histogram"));
  Alcotest.(check bool) "window exported" true
    (field j "window_s" = Some (Xmutil.Json.Int 10));
  Alcotest.(check bool) "count exported" true
    (field j "count" = Some (Xmutil.Json.Int 3));
  Alcotest.(check bool) "lifetime exported" true
    (field j "lifetime" = Some (Xmutil.Json.Int 3));
  Alcotest.(check bool) "p95 present for histogram kind" true
    (match field j "p95" with
    | Some (Xmutil.Json.Float _) | Some (Xmutil.Json.Int _) -> true
    | _ -> false);
  (* seconds: last min(window,60) per-second counts, oldest first — the
     second slot (two records) must come after the first (one). *)
  match field j "seconds" with
  | Some (Xmutil.Json.List l) ->
      Alcotest.(check int) "one entry per window second" 10 (List.length l);
      let ints =
        List.filter_map
          (function Xmutil.Json.Int i -> Some i | _ -> None)
          l
      in
      Alcotest.(check int) "per-second counts sum to the window" 3
        (List.fold_left ( + ) 0 ints);
      (match List.rev ints with
      | newest :: prev :: _ ->
          Alcotest.(check int) "newest second last" 2 newest;
          Alcotest.(check int) "previous second before it" 1 prev
      | _ -> Alcotest.fail "seconds too short")
  | _ -> Alcotest.fail "seconds missing"

(* ---------- SLO rules on an alert engine ---------- *)

(* The SLO rules over a query stream on a hand-cranked clock, as the
   daemon builds them from --window and --slo-*. *)
let slo ?p95_ms ?error_rate ?(window = 10) () =
  let now, clock = fake () in
  let st = Alerts.stream ~clock ~window [] in
  match Slo.create ?p95_ms ?error_rate ~window st with
  | Some t -> (now, st, t)
  | None -> Alcotest.fail "no objective configured"

let feed st ~ok ~wall_s =
  Alerts.feed st ~outcome:(if ok then Xmobs.Qlog.Ok else Xmobs.Qlog.Internal)
    ~wall_s

let has_prefix p r =
  String.length r >= String.length p && String.sub r 0 (String.length p) = p

let degraded_matching t needle =
  List.exists
    (fun r ->
      let rec find i =
        i + String.length needle <= String.length r
        && (String.sub r i (String.length needle) = needle || find (i + 1))
      in
      find 0)
    (Slo.evaluate t)

let test_slo_error_rate_breach_and_min_samples () =
  let now, st, t = slo ~error_rate:0.2 () in
  Alcotest.(check (list string)) "no traffic: healthy" [] (Slo.evaluate t);
  (* Four failures out of four — 100 % errors, but below the 5-query
     floor. *)
  for _ = 1 to 4 do
    feed st ~ok:false ~wall_s:0.001
  done;
  Alcotest.(check (list string)) "under the floor: still healthy" []
    (Slo.evaluate t);
  feed st ~ok:false ~wall_s:0.001;
  Alcotest.(check bool) "fifth sample trips the objective" true
    (degraded_matching t "error-rate");
  (* Observe the breach again just before the window slides clean: the
     recovery hold is measured from the last *observed* breach. *)
  now := 9.0;
  Alcotest.(check bool) "still breached at the window edge" true
    (degraded_matching t "error-rate");
  now := 10.5;
  Alcotest.(check bool) "clean but inside recovery hold" true
    (degraded_matching t "recovering");
  now := 11.5;
  Alcotest.(check (list string)) "recovered after the hold" []
    (Slo.evaluate t)

let test_slo_p95_breach () =
  let now, st, t = slo ~p95_ms:50.0 () in
  for _ = 1 to 10 do
    feed st ~ok:true ~wall_s:0.005
  done;
  Alcotest.(check (list string)) "fast queries: healthy" [] (Slo.evaluate t);
  for _ = 1 to 10 do
    feed st ~ok:true ~wall_s:0.500
  done;
  Alcotest.(check bool) "slow tail trips p95" true (degraded_matching t "p95");
  (* All successes — the error-rate objective (unset) never fires. *)
  Alcotest.(check bool) "only the latency objective fires" false
    (degraded_matching t "error-rate");
  now := 60.0;
  ignore (Slo.evaluate t);
  now := 63.0;
  Alcotest.(check (list string)) "window slides clean, health returns" []
    (Slo.evaluate t)

let test_slo_both_objectives_listed () =
  let _, st, t = slo ~p95_ms:1.0 ~error_rate:0.1 () in
  for _ = 1 to 5 do
    feed st ~ok:false ~wall_s:0.5
  done;
  match Slo.evaluate t with
  | [ first; second ] ->
      Alcotest.(check bool) "error rate first" true
        (has_prefix "error-rate " first);
      Alcotest.(check bool) "then latency" true (has_prefix "p95 " second)
  | reasons ->
      Alcotest.failf "expected both objectives reported, got %d"
        (List.length reasons)

let test_slo_json () =
  let _, st, t = slo ~error_rate:0.2 () in
  for _ = 1 to 5 do
    feed st ~ok:false ~wall_s:0.001
  done;
  let j = Xmutil.Json.of_string (Xmutil.Json.to_string (Slo.to_json t)) in
  Alcotest.(check bool) "status is degraded" true
    (field j "status" = Some (Xmutil.Json.String "degraded"));
  (match field j "reasons" with
  | Some (Xmutil.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "degraded status must carry reasons");
  (* The read-only snapshot agrees without ticking. *)
  Alcotest.(check bool) "snapshot is degraded" true
    (field (Slo.snapshot_json t) "status"
    = Some (Xmutil.Json.String "degraded"))

let suite =
  [
    Alcotest.test_case "counter rate and window decay" `Quick
      test_counter_rate_and_decay;
    Alcotest.test_case "ring wrap-around evicts the stale slot" `Quick
      test_ring_wraparound_evicts;
    Alcotest.test_case "backward clock jump evicts future slots" `Quick
      test_backward_clock_jump_evicts_future;
    Alcotest.test_case "idle wraparound reads clean" `Quick
      test_idle_wraparound_reads_clean;
    Alcotest.test_case "sub-window count/sum/percentile" `Quick
      test_sub_window_reads;
    Alcotest.test_case "ratio and error-budget burn" `Quick
      test_ratio_and_burn;
    Alcotest.test_case "windowed percentiles follow expiry" `Quick
      test_histogram_percentiles_over_window;
    Alcotest.test_case "counter kind has no percentile" `Quick
      test_counter_has_no_percentile;
    Alcotest.test_case "window is clamped to sane bounds" `Quick
      test_window_clamped;
    Alcotest.test_case "json export round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "slo error-rate breach and min_samples gate" `Quick
      test_slo_error_rate_breach_and_min_samples;
    Alcotest.test_case "slo p95 breach and recovery" `Quick test_slo_p95_breach;
    Alcotest.test_case "slo reports every breached objective" `Quick
      test_slo_both_objectives_listed;
    Alcotest.test_case "slo json carries status and reasons" `Quick
      test_slo_json;
  ]
