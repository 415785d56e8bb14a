(* Alerting: burn-rate and threshold rules over the query stream.

   The stream is the daemon's one record of executed queries — a latency
   histogram whose count is the total, a non-ok counter and an
   internal/parse-error counter — written once per query by [feed].
   Engines only read it, so the rules file's engine, the SLO engine and
   the dashboard share one set of rings.  Rules are simple thresholds
   (error fraction, p95 milliseconds, each over its own trailing window)
   and SRE-style multi-window burn rates (the error budget burning more
   than [factor] times too fast over both a fast window, which reacts in
   minutes, and a slow one, which keeps a blip from paging).

   Each rule runs a state machine: ok → pending (condition true but
   younger than [for_s]) → firing → ok once the condition has been false
   for the engine's [hold_s].  Ticks are serialized, so no caller steps a
   machine with a stale judgment.  The edges land in a bounded ring and
   go to [deliver] *after* the state lock is released: the serve
   daemon's firing callback writes an incident bundle whose context
   calls back into [to_json], and would deadlock under that lock.

   A started evaluator ([start]) is a value its owner holds and stops:
   one engine with a ticker thread and the sink fan-out — a JSONL alert
   log, an outbound webhook (the sender is an argument, so xmobs stays
   below serve; bounded retry, failures counted and dropped — never
   allowed to block or crash serving), the owner's firing callback, and
   the metrics families.  Injectable clocks make the timing unit-testable
   and let the offline backtester (xmorph alerts) replay a qlog through
   this very evaluator. *)

module J = Xmutil.Json

let version = 1

(* ---------- rules ---------- *)

type condition =
  | Err_rate of { above : float; window_s : int }
  | P95_ms of { above : float; window_s : int }
  | Burn_rate of {
      objective : float;
      factor : float;
      fast_s : int;
      slow_s : int;
    }

type rule = { name : string; cond : condition; for_s : float; min_count : int }

type edge = Firing | Resolved

let edge_to_string = function Firing -> "firing" | Resolved -> "resolved"

type transition = {
  rule : string;
  at : float;
  edge : edge;
  value : float;
  reason : string;
}

let transition_to_json t =
  J.Obj
    [ ("rule", J.String t.rule);
      ("ts_ms", J.Int (int_of_float (Float.round (t.at *. 1000.))));
      ("state", J.String (edge_to_string t.edge));
      ("value", J.Float t.value);
      ("reason", J.String t.reason) ]

(* ---------- rule files ---------- *)

type config = {
  interval_s : float;
  log : string option;
  webhook : string option;
  webhook_timeout_s : float;
  webhook_retries : int;
  rules : rule list;
}

let ( let* ) = Result.bind

let field fs n = List.assoc_opt n fs

let num = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let str fs n = match field fs n with Some (J.String s) -> Some s | _ -> None

let clamp_w w = if w < 1 then 1 else if w > 3600 then 3600 else w

let parse_rule j =
  match j with
  | J.Obj fs -> (
      let numf n = num (field fs n) in
      let inum n = Option.map (fun f -> int_of_float (Float.round f)) (numf n) in
      let* name =
        match str fs "name" with
        | Some s when s <> "" -> Ok s
        | _ -> Error "rule missing a non-empty \"name\""
      in
      let window () = clamp_w (Option.value ~default:60 (inum "window_s")) in
      let* cond =
        match str fs "signal" with
        | Some "err_rate" -> (
            match numf "above" with
            | Some a when a >= 0.0 && a < 1.0 ->
                Ok (Err_rate { above = a; window_s = window () })
            | _ -> Error (name ^ ": err_rate needs \"above\" in [0,1)"))
        | Some "p95_ms" -> (
            match numf "above" with
            | Some a when a > 0.0 -> Ok (P95_ms { above = a; window_s = window () })
            | _ -> Error (name ^ ": p95_ms needs a positive \"above\""))
        | Some "burn_rate" -> (
            match numf "objective" with
            | Some o when o > 0.0 && o <= 1.0 ->
                let fast_s = clamp_w (Option.value ~default:60 (inum "fast_s")) in
                let slow_s =
                  clamp_w (Option.value ~default:1800 (inum "slow_s"))
                in
                let factor = Option.value ~default:14.4 (numf "factor") in
                if fast_s > slow_s then
                  Error (name ^ ": burn_rate fast_s must not exceed slow_s")
                else if factor <= 0.0 then
                  Error (name ^ ": burn_rate factor must be positive")
                else Ok (Burn_rate { objective = o; factor; fast_s; slow_s })
            | _ -> Error (name ^ ": burn_rate needs \"objective\" in (0,1]"))
        | Some s -> Error (name ^ ": unknown signal \"" ^ s ^ "\"")
        | None -> Error (name ^ ": missing \"signal\"")
      in
      Ok
        {
          name;
          cond;
          for_s = Float.max 0.0 (Option.value ~default:0.0 (numf "for_s"));
          min_count = max 0 (Option.value ~default:1 (inum "min_count"));
        })
  | _ -> Error "rule is not an object"

let config_of_json j =
  match j with
  | J.Obj fs ->
      let* () =
        match field fs "xmorph_alerts" with
        | Some (J.Int v) when v = version -> Ok ()
        | Some _ ->
            Error
              (Printf.sprintf "unsupported rules version (want xmorph_alerts %d)"
                 version)
        | None -> Error "missing \"xmorph_alerts\" version field"
      in
      let* rules =
        match field fs "rules" with
        | Some (J.List (_ :: _ as l)) ->
            List.fold_left
              (fun acc j ->
                let* acc = acc in
                let* r = parse_rule j in
                Ok (r :: acc))
              (Ok []) l
            |> Result.map List.rev
        | Some (J.List []) -> Error "\"rules\" is empty"
        | _ -> Error "missing \"rules\" list"
      in
      let* () =
        let rec unique = function
          | r :: rest when List.exists (fun r' -> r'.name = r.name) rest ->
              Error ("duplicate rule name \"" ^ r.name ^ "\"")
          | _ :: rest -> unique rest
          | [] -> Ok ()
        in
        unique rules
      in
      Ok
        {
          interval_s =
            Float.max 0.01 (Option.value ~default:1.0 (num (field fs "interval_s")));
          log = str fs "log";
          webhook = str fs "webhook";
          webhook_timeout_s =
            Float.max 0.01
              (Option.value ~default:2.0 (num (field fs "webhook_timeout_s")));
          webhook_retries =
            max 0
              (Option.value ~default:2
                 (Option.map
                    (fun f -> int_of_float (Float.round f))
                    (num (field fs "webhook_retries"))));
          rules;
        }
  | _ -> Error "rules file is not a JSON object"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error e -> Error e
  | text -> (
      match J.of_string text with
      | exception J.Parse_error { pos; msg } ->
          Error (Printf.sprintf "%s: parse error at %d: %s" path pos msg)
      | j -> config_of_json j)

(* ---------- the query stream ---------- *)

type stream = {
  clock : unit -> float;
  lat : Timeseries.t; (* wall seconds of every executed query; count = total *)
  errs : Timeseries.t; (* outcomes other than ok *)
  fails : Timeseries.t; (* internal and parse-error outcomes *)
}

let rule_window r =
  match r.cond with
  | Err_rate { window_s; _ } | P95_ms { window_s; _ } -> window_s
  | Burn_rate { slow_s; _ } -> slow_s

(* The +5 s: the newest slot must never evict a second a rule reads. *)
let stream ?(clock = Unix.gettimeofday) ?(window = 1) rules =
  let window =
    List.fold_left (fun acc r -> max acc (rule_window r + 5)) window rules
  in
  let mk = Timeseries.create ~window ~clock in
  { clock; lat = mk Timeseries.Histogram; errs = mk Timeseries.Counter;
    fails = mk Timeseries.Counter }

let latency st = st.lat

let failures st = st.fails

let feed st ~outcome ~wall_s =
  Timeseries.record st.lat wall_s;
  if outcome <> Qlog.Ok then Timeseries.bump st.errs;
  if outcome = Qlog.Parse_error || outcome = Qlog.Internal then
    Timeseries.bump st.fails

(* ---------- the engine ---------- *)

type rstate = Rs_ok | Rs_pending of float | Rs_firing

let rstate_to_string = function
  | Rs_ok -> "ok"
  | Rs_pending _ -> "pending"
  | Rs_firing -> "firing"

type rt = {
  rule : rule;
  mutable st : rstate;
  mutable holds : bool; (* the condition at the last tick *)
  mutable last_true : float; (* clock time of the last tick it held *)
  mutable last_value : float;
  mutable last_reason : string Lazy.t;
}

type engine = {
  src : stream;
  hold_s : float;
  rts : rt array;
  tick_lock : Mutex.t; (* serializes judge-step-deliver passes *)
  lock : Mutex.t; (* state machines + transitions ring *)
  ring : transition Xmutil.Ring.t;
}

let engine ?(ring = 64) ?(hold_s = 0.0) src rules =
  {
    src;
    hold_s;
    rts =
      Array.of_list
        (List.map
           (fun rule ->
             { rule; st = Rs_ok; holds = false; last_true = neg_infinity;
               last_value = 0.0; last_reason = lazy "" })
           rules);
    tick_lock = Mutex.create ();
    lock = Mutex.create ();
    ring = Xmutil.Ring.create ring;
  }

(* Judge one rule against the stream: (condition holds, observed value,
   reason), or [unjudged] under the rule's traffic floor.  Reads take
   only the per-series locks.  The reason is formatted lazily — the SLO
   rules tick on every served query, where Printf would dominate — and
   forced only under the state lock, so no two threads race on it. *)
let unjudged = (false, 0.0, lazy "")

let judge st r =
  let floor_s =
    match r.cond with Burn_rate { fast_s; _ } -> fast_s | _ -> rule_window r
  in
  let n = Timeseries.count_last st.lat floor_s in
  if n < r.min_count then unjudged
  else
    match r.cond with
    | Err_rate { above; window_s } ->
        let e = Timeseries.count_last st.errs window_s in
        let v = float_of_int e /. float_of_int n in
        ( v > above,
          v,
          lazy (Printf.sprintf "err_rate %.3f > %.3f over %ds" v above window_s)
        )
    | P95_ms { above; window_s } -> (
        match Timeseries.percentile_last st.lat window_s 0.95 with
        | None -> unjudged
        | Some p ->
            let v = p *. 1000.0 in
            ( v > above,
              v,
              lazy (Printf.sprintf "p95 %.1fms > %.1fms over %ds" v above window_s)
            ))
    | Burn_rate { objective; factor; fast_s; slow_s } -> (
        let burn w =
          Timeseries.error_budget_burn ~objective ~window_s:w st.errs st.lat
        in
        match (burn fast_s, burn slow_s) with
        | Some bf, Some bs ->
            ( bf > factor && bs > factor,
              bf,
              lazy
                (Printf.sprintf "burn %.1fx/%.1fx > %.1fx (objective %g)" bf bs
                   factor objective) )
        | _ -> unjudged)

let locked eng f =
  Mutex.lock eng.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock eng.lock) f

let tick ?(deliver = ignore) eng =
  Mutex.lock eng.tick_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock eng.tick_lock) @@ fun () ->
  (* Judge outside the state lock (series have their own), step inside
     it, deliver after it. *)
  let judged = Array.map (fun rt -> judge eng.src rt.rule) eng.rts in
  let now = eng.src.clock () in
  let trs =
    locked eng (fun () ->
        let out = ref [] in
        let emit t =
          Xmutil.Ring.push eng.ring t;
          out := t :: !out
        in
        Array.iteri
          (fun i rt ->
            let cond, value, reason = judged.(i) in
            rt.holds <- cond;
            if cond then rt.last_true <- now;
            rt.last_value <- value;
            if judged.(i) != unjudged then rt.last_reason <- reason;
            let fire () =
              rt.st <- Rs_firing;
              emit { rule = rt.rule.name; at = now; edge = Firing; value;
                     reason = Lazy.force reason }
            in
            match (rt.st, cond) with
            | Rs_ok, true ->
                if rt.rule.for_s <= 0.0 then fire ()
                else rt.st <- Rs_pending now
            | Rs_pending since, true ->
                if now -. since >= rt.rule.for_s then fire ()
            | Rs_pending _, false -> rt.st <- Rs_ok
            | Rs_firing, false when now -. rt.last_true >= eng.hold_s ->
                rt.st <- Rs_ok;
                emit
                  {
                    rule = rt.rule.name;
                    at = now;
                    edge = Resolved;
                    value;
                    reason = "recovered";
                  }
            | Rs_ok, false | Rs_firing, _ -> ())
          eng.rts;
        List.rev !out)
  in
  deliver trs;
  trs

type held = { h_rule : rule; h_now : bool; h_value : float; h_quiet_s : float }

let firing_rules eng =
  let now = eng.src.clock () in
  locked eng (fun () ->
      Array.fold_right
        (fun rt acc ->
          if rt.st <> Rs_firing then acc
          else
            { h_rule = rt.rule; h_now = rt.holds; h_value = rt.last_value;
              h_quiet_s = (if rt.holds then 0.0 else now -. rt.last_true) }
            :: acc)
        eng.rts [])

let states eng =
  locked eng (fun () ->
      Array.to_list
        (Array.map (fun rt -> (rt.rule.name, rstate_to_string rt.st)) eng.rts))

let recent eng = locked eng (fun () -> Xmutil.Ring.to_list eng.ring)

(* Lock held. *)
let firing_n eng =
  Array.fold_left (fun n rt -> if rt.st = Rs_firing then n + 1 else n) 0 eng.rts

let engine_firing eng = locked eng (fun () -> firing_n eng)

let engine_to_json eng =
  locked eng (fun () ->
      J.Obj
        [ ("rules",
           J.List
             (Array.to_list
                (Array.map
                   (fun rt ->
                     J.Obj
                       [ ("name", J.String rt.rule.name);
                         ("state", J.String (rstate_to_string rt.st));
                         ("value", J.Float rt.last_value);
                         ("reason", J.String (Lazy.force rt.last_reason)) ])
                   eng.rts)));
          ("firing", J.Int (firing_n eng));
          ("transitions",
           J.List
             (List.map transition_to_json (Xmutil.Ring.to_list eng.ring)))
        ])

(* ---------- the started evaluator ---------- *)

type sender =
  url:string -> timeout_s:float -> body:string -> (unit, string) result

type t = {
  cfg : config;
  eng : engine;
  send : sender option;
  on_firing : transition -> unit;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
  mutable drops : int;
  mutable delivered : int;
}

let firing g = engine_firing g.eng

let webhook_drops g = g.drops

(* Append the batch to the JSONL alert log.  One line per transition;
   open/append/close per batch — edges are rare.  A failed write (full
   disk, removed directory) is swallowed: the log is evidence, not a
   dependency of the serving path. *)
let log_transitions path trs =
  try
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun t ->
            output_string oc (J.to_string ~pretty:false (transition_to_json t));
            output_char oc '\n')
          trs)
  with Sys_error _ -> ()

let post_webhook g send url trs =
  List.iter
    (fun t ->
      let body = J.to_string ~pretty:false (transition_to_json t) in
      let rec attempt k =
        match
          try send ~url ~timeout_s:g.cfg.webhook_timeout_s ~body
          with _ -> Error "sender raised"
        with
        | Ok () -> g.delivered <- g.delivered + 1
        | Error _ when k < g.cfg.webhook_retries -> attempt (k + 1)
        | Error _ ->
            g.drops <- g.drops + 1;
            Metrics.inc "xmorph_alert_webhook_drops_total"
      in
      attempt 0)
    trs

(* Deliver a tick's transitions.  Runs under the engine's tick lock —
   so batches reach the sinks in tick order — but not its state lock:
   the firing callback may re-enter alert state (the serve daemon's
   incident bundle snapshots [to_json]). *)
let dispatch g trs =
  if trs <> [] then begin
    List.iter
      (fun (t : transition) ->
        Metrics.inc_labeled "xmorph_alerts_total"
          [ ("rule", t.rule); ("state", edge_to_string t.edge) ])
      trs;
    (match g.cfg.log with Some path -> log_transitions path trs | None -> ());
    List.iter
      (fun (t : transition) -> if t.edge = Firing then g.on_firing t)
      trs;
    match (g.cfg.webhook, g.send) with
    | Some url, Some send -> post_webhook g send url trs
    | _ -> ()
  end;
  Metrics.set_gauge "xmorph_alerts_firing" (float_of_int (engine_firing g.eng))

let tick_now g = ignore (tick ~deliver:(dispatch g) g.eng)

let ticker g =
  (* Nap in short slices so [stop] joins promptly even with a slow
     evaluation interval. *)
  let nap () =
    let left = ref g.cfg.interval_s in
    while !left > 0.0 && not (Atomic.get g.stopped) do
      let d = Float.min 0.05 !left in
      Thread.delay d;
      left := !left -. d
    done
  in
  while not (Atomic.get g.stopped) do
    nap ();
    if not (Atomic.get g.stopped) then
      try tick_now g with _ -> () (* the evaluator must outlive any sink *)
  done

let start ?send ?(on_firing = ignore) src cfg =
  let g =
    {
      cfg;
      eng = engine src cfg.rules;
      send;
      on_firing;
      stopped = Atomic.make false;
      thread = None;
      drops = 0;
      delivered = 0;
    }
  in
  g.thread <- Some (Thread.create ticker g);
  g

let stop g =
  Atomic.set g.stopped true;
  match g.thread with
  | Some t ->
      (try Thread.join t with _ -> ());
      g.thread <- None
  | None -> ()

let to_json g =
  let opt = function Some s -> J.String s | None -> J.Null in
  J.Obj
    ([ ("enabled", J.Bool (not (Atomic.get g.stopped)));
       ("interval_s", J.Float g.cfg.interval_s);
       ("log", opt g.cfg.log);
       ("webhook", opt g.cfg.webhook);
       ("webhook_delivered", J.Int g.delivered);
       ("webhook_drops", J.Int g.drops) ]
    @ match engine_to_json g.eng with J.Obj fs -> fs | _ -> [])
