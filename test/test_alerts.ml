(* The alerting engine: rule-file parsing and validation, the per-rule
   state machine in synthetic time (hysteresis, exactly-one edge per
   breach, burn-rate dual-window gating, traffic floors), sink behavior
   of the started evaluator (alert log, webhook retry/drop accounting),
   and — the property the live evaluator rides on — concurrent feeders
   racing the ticker never corrupt the transition log: edges strictly
   alternate firing/resolved per rule. *)

module Alerts = Xmobs.Alerts
module J = Xmutil.Json

let tmp_file =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_alerts_%d_%d%s" (Unix.getpid ()) !n suffix)

let parse s =
  match J.of_string s with
  | j -> Alerts.config_of_json j
  | exception J.Parse_error _ -> Error "parse error"

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error _ -> ()

(* ---------- rule files ---------- *)

let test_parse_valid () =
  let cfg =
    match
      parse
        {|{"xmorph_alerts": 1,
           "interval_s": 0.5,
           "log": "/tmp/a.jsonl",
           "webhook": "http://127.0.0.1:1/hook",
           "webhook_timeout_s": 0.1,
           "webhook_retries": 1,
           "rules": [
             {"name": "errs", "signal": "err_rate", "above": 0.1,
              "window_s": 30, "for_s": 2, "min_count": 5},
             {"name": "slow", "signal": "p95_ms", "above": 250},
             {"name": "burn", "signal": "burn_rate", "objective": 0.01,
              "factor": 10, "fast_s": 30, "slow_s": 300}]}|}
    with
    | Ok cfg -> cfg
    | Error m -> Alcotest.failf "valid config rejected: %s" m
  in
  Alcotest.(check int) "three rules" 3 (List.length cfg.Alerts.rules);
  Alcotest.(check (float 1e-9)) "interval" 0.5 cfg.Alerts.interval_s;
  Alcotest.(check (option string)) "log" (Some "/tmp/a.jsonl") cfg.Alerts.log;
  Alcotest.(check int) "retries" 1 cfg.Alerts.webhook_retries;
  (match cfg.Alerts.rules with
  | [ errs; slow; burn ] ->
      (match errs.Alerts.cond with
      | Alerts.Err_rate { above; window_s } ->
          Alcotest.(check (float 1e-9)) "above" 0.1 above;
          Alcotest.(check int) "window" 30 window_s
      | _ -> Alcotest.fail "errs is not err_rate");
      Alcotest.(check (float 1e-9)) "for_s" 2.0 errs.Alerts.for_s;
      Alcotest.(check int) "min_count" 5 errs.Alerts.min_count;
      (match slow.Alerts.cond with
      | Alerts.P95_ms { above; window_s } ->
          Alcotest.(check (float 1e-9)) "p95 above" 250.0 above;
          Alcotest.(check int) "default window" 60 window_s
      | _ -> Alcotest.fail "slow is not p95_ms");
      Alcotest.(check int) "default min_count" 1 slow.Alerts.min_count;
      (match burn.Alerts.cond with
      | Alerts.Burn_rate { objective; factor; fast_s; slow_s } ->
          Alcotest.(check (float 1e-9)) "objective" 0.01 objective;
          Alcotest.(check (float 1e-9)) "factor" 10.0 factor;
          Alcotest.(check int) "fast" 30 fast_s;
          Alcotest.(check int) "slow" 300 slow_s
      | _ -> Alcotest.fail "burn is not burn_rate")
  | _ -> Alcotest.fail "rule list shape");
  (* Defaults for the optional envelope fields. *)
  match
    parse
      {|{"xmorph_alerts": 1,
         "rules": [{"name": "e", "signal": "err_rate", "above": 0.5}]}|}
  with
  | Error m -> Alcotest.failf "minimal config rejected: %s" m
  | Ok cfg ->
      Alcotest.(check (float 1e-9)) "default interval" 1.0 cfg.Alerts.interval_s;
      Alcotest.(check (option string)) "no log" None cfg.Alerts.log;
      Alcotest.(check (option string)) "no webhook" None cfg.Alerts.webhook;
      Alcotest.(check int) "default retries" 2 cfg.Alerts.webhook_retries

let test_parse_rejects () =
  let rule = {|{"name": "e", "signal": "err_rate", "above": 0.5}|} in
  expect_error "wrong version"
    (parse ({|{"xmorph_alerts": 99, "rules": [|} ^ rule ^ "]}"));
  expect_error "missing version" (parse ({|{"rules": [|} ^ rule ^ "]}"));
  expect_error "empty rules" (parse {|{"xmorph_alerts": 1, "rules": []}|});
  expect_error "missing rules" (parse {|{"xmorph_alerts": 1}|});
  expect_error "duplicate names"
    (parse ({|{"xmorph_alerts": 1, "rules": [|} ^ rule ^ ", " ^ rule ^ "]}"));
  expect_error "nameless rule"
    (parse {|{"xmorph_alerts": 1, "rules": [{"signal": "err_rate", "above": 0.5}]}|});
  expect_error "unknown signal"
    (parse {|{"xmorph_alerts": 1, "rules": [{"name": "x", "signal": "cpu"}]}|});
  expect_error "err_rate above out of range"
    (parse {|{"xmorph_alerts": 1,
              "rules": [{"name": "x", "signal": "err_rate", "above": 1.5}]}|});
  expect_error "p95 needs positive above"
    (parse {|{"xmorph_alerts": 1,
              "rules": [{"name": "x", "signal": "p95_ms", "above": 0}]}|});
  expect_error "burn needs objective"
    (parse {|{"xmorph_alerts": 1,
              "rules": [{"name": "x", "signal": "burn_rate"}]}|});
  expect_error "burn fast wider than slow"
    (parse {|{"xmorph_alerts": 1,
              "rules": [{"name": "x", "signal": "burn_rate",
                         "objective": 0.01, "fast_s": 600, "slow_s": 60}]}|});
  expect_error "not an object" (parse {|[1, 2]|})

let test_load_failure_modes () =
  expect_error "missing file" (Alerts.load (tmp_file ".does-not-exist.json"));
  let path = tmp_file ".json" in
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  (match Alerts.load path with
  | Ok _ -> Alcotest.fail "corrupt file accepted"
  | Error m ->
      Alcotest.(check bool) "error names the file" true
        (String.length m > 0
        && String.sub m 0 (String.length path) = path));
  Sys.remove path

(* ---------- the state machine, in synthetic time ---------- *)

let mk_engine ?ring rules =
  let now = ref 1000.0 in
  let st = Alerts.stream ~clock:(fun () -> !now) rules in
  (now, st, Alerts.engine ?ring st rules)

let feed st ~ok ~wall_s =
  Alerts.feed st ~outcome:(if ok then Xmobs.Qlog.Ok else Xmobs.Qlog.Internal)
    ~wall_s

let err_rule ?(above = 0.1) ?(window_s = 10) ?(for_s = 0.0) ?(min_count = 1)
    name =
  { Alerts.name; cond = Alerts.Err_rate { above; window_s }; for_s; min_count }

let edges ts = List.map (fun (t : Alerts.transition) -> t.Alerts.edge) ts

let test_fire_and_resolve_once () =
  let now, st, eng = mk_engine [ err_rule "errs" ] in
  (* Breach: 5 errors, 5 oks — 50% over a 10s window. *)
  for _ = 1 to 5 do
    feed st ~ok:false ~wall_s:0.001;
    feed st ~ok:true ~wall_s:0.001
  done;
  Alcotest.(check (list string)) "one firing edge"
    [ "firing" ]
    (List.map Alerts.edge_to_string (edges (Alerts.tick eng)));
  Alcotest.(check (list (pair string string))) "state is firing"
    [ ("errs", "firing") ] (Alerts.states eng);
  (* Still breaching: no second edge. *)
  now := !now +. 1.0;
  feed st ~ok:false ~wall_s:0.001;
  Alcotest.(check int) "no duplicate firing" 0 (List.length (Alerts.tick eng));
  (* Recover: clean traffic until the errors slide out of the window. *)
  for _ = 1 to 12 do
    now := !now +. 1.0;
    feed st ~ok:true ~wall_s:0.001
  done;
  (match Alerts.tick eng with
  | [ t ] ->
      Alcotest.(check string) "resolved edge" "resolved"
        (Alerts.edge_to_string t.Alerts.edge);
      Alcotest.(check string) "reason" "recovered" t.Alerts.reason
  | ts -> Alcotest.failf "expected one resolved edge, got %d" (List.length ts));
  Alcotest.(check (list (pair string string))) "back to ok"
    [ ("errs", "ok") ] (Alerts.states eng);
  Alcotest.(check int) "ring holds both edges" 2
    (List.length (Alerts.recent eng))

let test_for_duration_hysteresis () =
  let now, st, eng = mk_engine [ err_rule ~for_s:3.0 "errs" ] in
  feed st ~ok:false ~wall_s:0.001;
  (* Condition true but young: pending, no edge. *)
  Alcotest.(check int) "no early firing" 0 (List.length (Alerts.tick eng));
  Alcotest.(check (list (pair string string))) "pending"
    [ ("errs", "pending") ] (Alerts.states eng);
  (* A blip that dilutes below the threshold before for_s never
     fires: 1 error against 30 oks is 3%. *)
  now := !now +. 1.0;
  for _ = 1 to 30 do
    feed st ~ok:true ~wall_s:0.001
  done;
  ignore (Alerts.tick eng);
  Alcotest.(check (list (pair string string))) "blip subsided to ok"
    [ ("errs", "ok") ] (Alerts.states eng);
  Alcotest.(check int) "blip produced no edges" 0
    (List.length (Alerts.recent eng));
  (* A sustained breach fires once for_s has elapsed.  (First clear the
     window of the blip's traffic.) *)
  now := !now +. 12.0;
  feed st ~ok:false ~wall_s:0.001;
  ignore (Alerts.tick eng);
  now := !now +. 2.0;
  feed st ~ok:false ~wall_s:0.001;
  Alcotest.(check int) "still pending at 2s" 0 (List.length (Alerts.tick eng));
  now := !now +. 1.5;
  feed st ~ok:false ~wall_s:0.001;
  Alcotest.(check (list string)) "fires after for_s"
    [ "firing" ]
    (List.map Alerts.edge_to_string (edges (Alerts.tick eng)))

let test_min_count_gate () =
  let _now, st, eng = mk_engine [ err_rule ~min_count:10 "errs" ] in
  (* 100% errors but under the traffic floor: never judged. *)
  for _ = 1 to 9 do
    feed st ~ok:false ~wall_s:0.001
  done;
  Alcotest.(check int) "under the floor" 0 (List.length (Alerts.tick eng));
  feed st ~ok:false ~wall_s:0.001;
  Alcotest.(check int) "at the floor" 1 (List.length (Alerts.tick eng))

let test_p95_rule () =
  let _now, st, eng =
    mk_engine
      [ { Alerts.name = "slow";
          cond = Alerts.P95_ms { above = 100.0; window_s = 10 };
          for_s = 0.0; min_count = 1 } ]
  in
  for _ = 1 to 20 do
    feed st ~ok:true ~wall_s:0.005
  done;
  Alcotest.(check int) "fast traffic never fires" 0
    (List.length (Alerts.tick eng));
  for _ = 1 to 20 do
    feed st ~ok:true ~wall_s:0.5
  done;
  match Alerts.tick eng with
  | [ t ] ->
      Alcotest.(check bool) "observed p95 is in ms" true
        (t.Alerts.value > 100.0)
  | ts -> Alcotest.failf "expected one firing edge, got %d" (List.length ts)

let test_burn_rate_needs_both_windows () =
  let now, st, eng =
    mk_engine
      [ { Alerts.name = "burn";
          cond =
            Alerts.Burn_rate
              { objective = 0.01; factor = 10.0; fast_s = 10; slow_s = 60 };
          for_s = 0.0; min_count = 1 } ]
  in
  (* A long clean history dilutes the slow window: a short error spike
     breaches the fast window only, and must not fire. *)
  for _ = 1 to 55 do
    for _ = 1 to 20 do
      feed st ~ok:true ~wall_s:0.001
    done;
    now := !now +. 1.0
  done;
  for _ = 1 to 10 do
    feed st ~ok:false ~wall_s:0.001
  done;
  Alcotest.(check int) "fast-only breach keeps quiet" 0
    (List.length (Alerts.tick eng));
  (* Sustained errors push the slow window over the factor too. *)
  for _ = 1 to 59 do
    now := !now +. 1.0;
    for _ = 1 to 20 do
      feed st ~ok:false ~wall_s:0.001
    done
  done;
  match Alerts.tick eng with
  | [ t ] ->
      Alcotest.(check bool) "burn multiple is large" true
        (t.Alerts.value > 10.0)
  | ts -> Alcotest.failf "expected one firing edge, got %d" (List.length ts)

let test_ring_bounded_and_json () =
  let now, st, eng = mk_engine ~ring:4 [ err_rule "errs" ] in
  (* 5 breach/recover cycles = 10 edges through a 4-slot ring.  Each
     breach is 5 errors so the recovery traffic still in the window
     (10 oks) cannot dilute it below the 10% threshold. *)
  for _ = 1 to 5 do
    for _ = 1 to 5 do
      feed st ~ok:false ~wall_s:0.001
    done;
    ignore (Alerts.tick eng);
    for _ = 1 to 12 do
      now := !now +. 1.0;
      feed st ~ok:true ~wall_s:0.001
    done;
    ignore (Alerts.tick eng)
  done;
  let recent = Alerts.recent eng in
  Alcotest.(check int) "ring keeps the newest 4" 4 (List.length recent);
  Alcotest.(check (list string)) "oldest first, alternating"
    [ "firing"; "resolved"; "firing"; "resolved" ]
    (List.map Alerts.edge_to_string (edges recent));
  match Alerts.engine_to_json eng with
  | J.Obj fs ->
      (match List.assoc_opt "rules" fs with
      | Some (J.List [ J.Obj rf ]) ->
          Alcotest.(check (option string)) "rule name"
            (Some "errs")
            (match List.assoc_opt "name" rf with
            | Some (J.String s) -> Some s
            | _ -> None)
      | _ -> Alcotest.fail "rules list shape");
      (match List.assoc_opt "firing" fs with
      | Some (J.Int 0) -> ()
      | _ -> Alcotest.fail "firing count");
      (match List.assoc_opt "transitions" fs with
      | Some (J.List ts) -> Alcotest.(check int) "json transitions" 4
          (List.length ts)
      | _ -> Alcotest.fail "transitions shape")
  | _ -> Alcotest.fail "engine_to_json is not an object"

(* ---------- the started evaluator and its sinks ---------- *)

let base_cfg rules =
  { Alerts.interval_s = 3600.0; (* paced ticks out of the picture *)
    log = None; webhook = None; webhook_timeout_s = 0.05;
    webhook_retries = 2; rules }

let with_alerts ?send cfg f =
  let st = Alerts.stream cfg.Alerts.rules in
  let a = Alerts.start ?send ~metrics:(Xmobs.Metrics.create ()) st cfg in
  Fun.protect (fun () -> f a st) ~finally:(fun () -> Alerts.stop a)

let drive_breach_and_recovery a st =
  (* The evaluator runs on the wall clock; err_rate over a window
     counts epochs, so breach and recovery land in the same real second
     as far as the series are concerned — recovery instead rides on
     feed volume: impossible here.  Use the log-file sink test
     with a breach only, and check the resolved edge in the qcheck
     property where the clock is synthetic. *)
  for _ = 1 to 10 do
    feed st ~ok:false ~wall_s:0.001
  done;
  Alerts.tick_now a

let test_log_sink () =
  let path = tmp_file ".jsonl" in
  let cfg = { (base_cfg [ err_rule "errs" ]) with log = Some path } in
  let stopped =
    with_alerts cfg (fun a st ->
        drive_breach_and_recovery a st;
        Alcotest.(check int) "one rule firing" 1 (Alerts.firing a);
        (match Alerts.to_json a with
        | J.Obj fs ->
            (match List.assoc_opt "enabled" fs with
            | Some (J.Bool true) -> ()
            | _ -> Alcotest.fail "to_json enabled flag");
            (match List.assoc_opt "log" fs with
            | Some (J.String p) -> Alcotest.(check string) "log path" path p
            | _ -> Alcotest.fail "to_json log path")
        | _ -> Alcotest.fail "to_json shape");
        a)
  in
  (match Alerts.to_json stopped with
  | J.Obj fs -> (
      match List.assoc_opt "enabled" fs with
      | Some (J.Bool false) -> ()
      | _ -> Alcotest.fail "stopped to_json enabled flag")
  | _ -> Alcotest.fail "stopped to_json shape");
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match J.of_string line with
  | J.Obj fs ->
      Alcotest.(check (option string)) "logged rule" (Some "errs")
        (match List.assoc_opt "rule" fs with
        | Some (J.String s) -> Some s
        | _ -> None);
      Alcotest.(check (option string)) "logged state" (Some "firing")
        (match List.assoc_opt "state" fs with
        | Some (J.String s) -> Some s
        | _ -> None)
  | _ -> Alcotest.fail "alert log line is not an object"

let test_webhook_retry_and_drop () =
  let calls = ref 0 in
  let refuse ~url:_ ~timeout_s:_ ~body:_ =
    incr calls;
    Error "refused"
  in
  let cfg =
    { (base_cfg [ err_rule "errs" ]) with webhook = Some "http://unreachable" }
  in
  with_alerts ~send:refuse cfg (fun a st ->
      drive_breach_and_recovery a st;
      (* 1 first attempt + 2 retries, then the delivery is dropped. *)
      Alcotest.(check int) "attempts" 3 !calls;
      Alcotest.(check int) "dropped once" 1 (Alerts.webhook_drops a));
  (* A succeeding sender delivers on the first attempt. *)
  let ok_calls = ref 0 in
  let accept ~url:_ ~timeout_s:_ ~body =
    incr ok_calls;
    Alcotest.(check bool) "body is the transition json" true
      (match J.of_string body with J.Obj _ -> true | _ -> false);
    Ok ()
  in
  with_alerts ~send:accept cfg (fun a st ->
      drive_breach_and_recovery a st;
      Alcotest.(check int) "one delivery" 1 !ok_calls;
      Alcotest.(check int) "no drops" 0 (Alerts.webhook_drops a))

(* ---------- concurrency: feeders racing the evaluator ---------- *)

(* N feeders, spread over one, two or four domains, hammer [feed] while
   the clock steps through breach/recover cycles with a [tick] at each
   phase boundary.  Whatever the interleaving, the per-rule transition log must strictly alternate
   firing/resolved starting with firing, one pair per cycle — a lost or
   duplicated edge means the state machine raced its series reads. *)
let prop_concurrent_transitions_alternate =
  QCheck2.Test.make ~name:"concurrent feeds keep edges alternating" ~count:15
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 4))
    (fun (threads, cycles) ->
      List.for_all
        (fun domains ->
          let clock = Atomic.make 1000.0 in
          let rules = [ err_rule ~above:0.5 ~window_s:5 "errs" ] in
          let st = Alerts.stream ~clock:(fun () -> Atomic.get clock) rules in
          let eng = Alerts.engine st rules in
          let log = ref [] in
          let feed_all ok =
            ignore
              (Tutil.on_domains domains
                 (List.init threads (fun _ () ->
                      for _ = 1 to 50 do
                        feed st ~ok ~wall_s:0.001
                      done)))
          in
          let tick () = log := !log @ Alerts.tick eng in
          for _ = 1 to cycles do
            feed_all false;
            tick ();
            (* Clean traffic until the breach second leaves the window. *)
            for _ = 1 to 6 do
              Atomic.set clock (Atomic.get clock +. 1.0);
              feed_all true
            done;
            tick ();
            (* An idle gap so the next breach starts from an empty
               window whatever [cycles] is. *)
            for _ = 1 to 7 do
              Atomic.set clock (Atomic.get clock +. 1.0)
            done
          done;
          let rec alternates expect = function
            | [] -> true
            | (t : Alerts.transition) :: rest ->
                t.Alerts.edge = expect
                && alternates
                     (match expect with
                     | Alerts.Firing -> Alerts.Resolved
                     | Alerts.Resolved -> Alerts.Firing)
                     rest
          in
          List.length !log = 2 * cycles && alternates Alerts.Firing !log)
        [ 1; 2; 4 ])

let suite =
  [
    Alcotest.test_case "rule file parses" `Quick test_parse_valid;
    Alcotest.test_case "rule file rejects bad input" `Quick test_parse_rejects;
    Alcotest.test_case "load failure modes" `Quick test_load_failure_modes;
    Alcotest.test_case "fire and resolve exactly once" `Quick
      test_fire_and_resolve_once;
    Alcotest.test_case "for-duration hysteresis" `Quick
      test_for_duration_hysteresis;
    Alcotest.test_case "min_count traffic floor" `Quick test_min_count_gate;
    Alcotest.test_case "p95 rule observes milliseconds" `Quick test_p95_rule;
    Alcotest.test_case "burn rate needs both windows" `Quick
      test_burn_rate_needs_both_windows;
    Alcotest.test_case "transitions ring is bounded" `Quick
      test_ring_bounded_and_json;
    Alcotest.test_case "evaluator logs transitions" `Quick
      test_log_sink;
    Alcotest.test_case "webhook retry and drop accounting" `Quick
      test_webhook_retry_and_drop;
    QCheck_alcotest.to_alcotest prop_concurrent_transitions_alternate;
  ]
