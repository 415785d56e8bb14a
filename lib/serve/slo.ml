(* SLO evaluation for /healthz: --slo-error-rate and --slo-p95-ms as two
   threshold rules on an alert engine over the daemon's query stream, so
   health is judged on the served workload, not on the probes watching
   it.  Hysteresis is the engine's: a breach fires at once (given
   [min_count] queries in the window, so one slow query cannot flap a
   fresh daemon) and resolves only after [hold_s] clean — one 503 stretch
   per incident, its body marked "recovering" during the hold.  The body
   is worded here, not by the engine's [judge], so it stays /healthz's
   own. *)

module A = Xmobs.Alerts
module J = Xmutil.Json

let min_count = 5

let hold_s = 2.0

type t = {
  src : A.stream;
  eng : A.engine;
  window : int;
  objectives : (string * J.t) list; (* for the JSON verdict *)
  on_breach : (string list -> unit) option;
}

let create ?p95_ms ?error_rate ?on_breach ~window src =
  let rule name cond = { A.name; cond; for_s = 0.0; min_count } in
  let rules =
    (match error_rate with
    | Some above -> [ rule "slo-error-rate" (A.Err_rate { above; window_s = window }) ]
    | None -> [])
    @ match p95_ms with
      | Some above -> [ rule "slo-p95-ms" (A.P95_ms { above; window_s = window }) ]
      | None -> []
  in
  let objective name = Option.map (fun v -> (name, J.Float v)) in
  if rules = [] then None
  else
    Some
      { src; eng = A.engine ~hold_s src rules; window; on_breach;
        objectives =
          List.filter_map Fun.id
            [ objective "p95_ms" p95_ms; objective "max_error_rate" error_rate ] }

(* Each breach, quantified for the 503 body; or one "recovering" line
   while every firing rule is clean but inside its hold. *)
let reasons t =
  let breach (h : A.held) =
    let n = Xmobs.Timeseries.count_last (A.latency t.src) t.window in
    match h.A.h_rule.A.cond with
    | A.Err_rate { above; _ } ->
        Printf.sprintf "error-rate %.2f > %.2f (window %ds, %d queries)"
          h.A.h_value above t.window n
    | A.P95_ms { above; _ } ->
        Printf.sprintf "p95 %.1fms > %.1fms (window %ds, %d queries)"
          h.A.h_value above t.window n
    | A.Burn_rate _ -> h.A.h_rule.A.name (* not an SLO rule *)
  in
  let firing = A.firing_rules t.eng in
  match List.filter (fun (h : A.held) -> h.A.h_now) firing with
  | [] when firing <> [] ->
      let quiet =
        List.fold_left (fun q (h : A.held) -> Float.min q h.A.h_quiet_s)
          infinity firing
      in
      [ Printf.sprintf "recovering (breach cleared %.1fs ago, holding %.1fs)"
          quiet hold_s ]
  | breached -> List.map breach breached

(* The healthy->degraded edge: this tick took the engine from no rule
   firing to some.  A rule makes at most one edge per tick, so the count
   before the tick is the count after it less the edges. *)
let deliver t f trs =
  let edges e =
    List.length (List.filter (fun (x : A.transition) -> x.A.edge = e) trs)
  in
  let up = edges A.Firing in
  if up > 0 && List.length (A.firing_rules t.eng) = up - edges A.Resolved then
    try f (reasons t) with _ -> ()

let evaluate t =
  ignore (A.tick ?deliver:(Option.map (deliver t) t.on_breach) t.eng);
  reasons t

let json t reasons =
  J.Obj
    [ ("status", J.String (if reasons = [] then "ok" else "degraded"));
      ("reasons", J.List (List.map (fun r -> J.String r) reasons));
      ("objectives",
       J.Obj
         (t.objectives
         @ [ ("window_s", J.Int t.window); ("min_samples", J.Int min_count) ]))
    ]

let to_json t = json t (evaluate t)

(* Read-only: whether a rule is firing, without ticking — so it never
   fires [on_breach].  Incident bundles use this (their context provider
   runs under the flight recorder's lock). *)
let snapshot_json t =
  json t (if A.firing_rules t.eng = [] then [] else [ "degraded" ])
