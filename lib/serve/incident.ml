(* The offline incident-bundle viewer behind [xmorph incident].

   A bundle is what the flight recorder wrote at the moment of a trigger
   (Xmobs.Flight); this module parses it back, validates the shape
   ([--check], used by CI and cram to gate artifacts), renders a
   human-oriented report — trigger header, span timeline, recent query
   table, context summary — and optionally cross-references the bundle's
   guard hashes against an operator-statistics warehouse so the
   post-mortem can say what the hot guards historically cost. *)

type t = {
  version : int;
  kind : string;
  reason : string;
  ts_ms : int;
  trace_events : Xmutil.Json.t list;
  qlog : Xmobs.Qlog.entry list;
  qlog_malformed : int; (* ring records that failed to parse back *)
  json : Xmutil.Json.t; (* the whole bundle, for --json passthrough *)
}

module J = Xmutil.Json

let of_json json =
  let f = J.fields ~what:"incident bundle" json in
  let version = J.int_field f "version" in
  if version <> Xmobs.Flight.version then
    failwith
      (Printf.sprintf "incident bundle: unsupported version %d (expected %d)"
         version Xmobs.Flight.version);
  let trigger = J.object_field f "trigger" in
  let trace_events = J.list_field (J.object_field f "trace") "traceEvents" in
  let qlog, qlog_malformed =
    List.fold_left
      (fun (ok, bad) r ->
        match Xmobs.Qlog.entry_of_json r with
        | e -> (e :: ok, bad)
        | exception Failure _ -> (ok, bad + 1))
      ([], 0) (J.list_field f "qlog")
    |> fun (ok, bad) -> (List.rev ok, bad)
  in
  ignore (J.object_field f "metrics");
  {
    version;
    kind = J.string_field trigger "kind";
    reason = J.string_field trigger "reason";
    ts_ms = J.int_field trigger "ts_ms";
    trace_events;
    qlog;
    qlog_malformed;
    json;
  }

let load path =
  match J.read_file path with
  | json -> of_json json
  | exception J.Parse_error { pos; msg } ->
      failwith ("incident bundle: " ^ J.error_message ~pos ~msg)

(* ---------- check ---------- *)

let check path =
  match load path with
  | exception Sys_error m -> Error m
  | exception Failure m -> Error m
  | t ->
      if not (List.mem t.kind Xmobs.Flight.kinds) then
        Error (Printf.sprintf "unknown trigger kind %S" t.kind)
      else Ok t

(* ---------- rendering ---------- *)

let span_row e =
  let num name = Option.value ~default:0.0 (J.number_at e [ name ]) in
  match (J.string_at e [ "name" ], J.string_at e [ "ph" ]) with
  | Some name, Some "X" -> Some (num "ts", name, Some (num "dur"))
  | Some name, Some _ -> Some (num "ts", name, None)
  | _ -> None

let timeline ?(limit = 40) t =
  let rows = List.filter_map span_row t.trace_events in
  let rows = List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) rows in
  let n = List.length rows in
  let rows =
    (* Keep the tail: the spans closest to the trigger are the story. *)
    if n > limit then List.filteri (fun i _ -> i >= n - limit) rows else rows
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "timeline (%d span/event records%s):\n" n
       (if n > limit then Printf.sprintf ", last %d shown" limit else ""));
  List.iter
    (fun (ts, name, dur) ->
      Buffer.add_string b
        (match dur with
        | Some d ->
            Printf.sprintf "  %12.3f ms  %-32s %10.3f ms\n" (ts /. 1e3) name
              (d /. 1e3)
        | None -> Printf.sprintf "  %12.3f ms  . %s\n" (ts /. 1e3) name))
    rows;
  Buffer.contents b

let qlog_table t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "recent queries (%d record%s%s):\n" (List.length t.qlog)
       (if List.length t.qlog = 1 then "" else "s")
       (if t.qlog_malformed > 0 then
          Printf.sprintf ", %d malformed" t.qlog_malformed
        else ""));
  List.iter
    (fun (e : Xmobs.Qlog.entry) ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s %-14s %8.1f ms  guard=%s%s%s\n"
           e.Xmobs.Qlog.source
           (Xmobs.Qlog.outcome_to_string e.Xmobs.Qlog.outcome)
           (e.Xmobs.Qlog.wall_s *. 1000.)
           e.Xmobs.Qlog.guard_hash
           (match e.Xmobs.Qlog.generation with
           | None -> ""
           | Some g -> Printf.sprintf " gen=%d" g)
           (if e.Xmobs.Qlog.cached then " cached" else "")))
    t.qlog;
  Buffer.contents b

let context_summary t =
  let b = Buffer.create 256 in
  List.iter
    (function
      | J.Obj _ as s ->
          Buffer.add_string b
            (Printf.sprintf "  store %s: %d nodes, generation %d\n"
               (Option.value ~default:"?" (J.string_at s [ "name" ]))
               (Option.value ~default:0 (J.int_at s [ "nodes" ]))
               (Option.value ~default:0 (J.int_at s [ "generation" ])))
      | _ -> ())
    (J.list_at t.json [ "context"; "stores" ]);
  (match J.path t.json [ "context"; "slo" ] with
  | Some (J.Obj _ as slo) ->
      Buffer.add_string b
        (Printf.sprintf "  slo: %s\n"
           (Option.value ~default:"?" (J.string_at slo [ "status" ])))
  | _ -> ());
  if Buffer.length b = 0 then "" else "context:\n" ^ Buffer.contents b

let to_text t =
  let header =
    Printf.sprintf
      "incident: %s\nreason:   %s\nat:       %.3f (unix)\nversion:  %d\n"
      t.kind t.reason
      (float_of_int t.ts_ms /. 1000.)
      t.version
  in
  String.concat "\n"
    (List.filter
       (fun s -> s <> "")
       [ header; context_summary t; qlog_table t; timeline t ])
