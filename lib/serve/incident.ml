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

let fail fmt = Printf.ksprintf failwith fmt

let obj_fields name = function
  | Xmutil.Json.Obj fields -> fields
  | _ -> fail "incident bundle: %s is not a JSON object" name

let find fields name = List.assoc_opt name fields

let get_int fields name =
  match find fields name with
  | Some (Xmutil.Json.Int i) -> i
  | Some (Xmutil.Json.Float f) -> int_of_float f
  | Some _ -> fail "incident bundle: field %S is not a number" name
  | None -> fail "incident bundle: missing field %S" name

let get_string fields name =
  match find fields name with
  | Some (Xmutil.Json.String s) -> s
  | Some _ -> fail "incident bundle: field %S is not a string" name
  | None -> fail "incident bundle: missing field %S" name

let of_json json =
  let fields = obj_fields "bundle" json in
  let version = get_int fields "version" in
  if version <> Xmobs.Flight.version then
    fail "incident bundle: unsupported version %d (expected %d)" version
      Xmobs.Flight.version;
  let trigger = obj_fields "trigger" (
    match find fields "trigger" with
    | Some t -> t
    | None -> fail "incident bundle: missing field \"trigger\"")
  in
  let trace_events =
    match find fields "trace" with
    | None -> fail "incident bundle: missing field \"trace\""
    | Some t -> (
        match find (obj_fields "trace" t) "traceEvents" with
        | Some (Xmutil.Json.List es) -> es
        | Some _ -> fail "incident bundle: traceEvents is not a list"
        | None -> fail "incident bundle: trace has no traceEvents")
  in
  let qlog, qlog_malformed =
    match find fields "qlog" with
    | None -> fail "incident bundle: missing field \"qlog\""
    | Some (Xmutil.Json.List rs) ->
        List.fold_left
          (fun (ok, bad) r ->
            match Xmobs.Qlog.entry_of_json r with
            | e -> (e :: ok, bad)
            | exception Failure _ -> (ok, bad + 1))
          ([], 0) rs
        |> fun (ok, bad) -> (List.rev ok, bad)
    | Some _ -> fail "incident bundle: qlog is not a list"
  in
  (match find fields "metrics" with
  | Some (Xmutil.Json.Obj _) -> ()
  | Some _ -> fail "incident bundle: metrics is not an object"
  | None -> fail "incident bundle: missing field \"metrics\"");
  {
    version;
    kind = get_string trigger "kind";
    reason = get_string trigger "reason";
    ts_ms = get_int trigger "ts_ms";
    trace_events;
    qlog;
    qlog_malformed;
    json;
  }

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in_noerr ic;
  match Xmutil.Json.of_string text with
  | json -> of_json json
  | exception Xmutil.Json.Parse_error { pos; msg } ->
      failwith
        (Printf.sprintf "incident bundle: invalid JSON at byte %d: %s" pos msg)

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
  match e with
  | Xmutil.Json.Obj f -> (
      let num name =
        match find f name with
        | Some (Xmutil.Json.Float v) -> v
        | Some (Xmutil.Json.Int v) -> float_of_int v
        | _ -> 0.0
      in
      match (find f "name", find f "ph") with
      | Some (Xmutil.Json.String name), Some (Xmutil.Json.String "X") ->
          Some (num "ts", name, Some (num "dur"))
      | Some (Xmutil.Json.String name), Some (Xmutil.Json.String _) ->
          Some (num "ts", name, None)
      | _ -> None)
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
  let fields = obj_fields "bundle" t.json in
  match find fields "context" with
  | None | Some Xmutil.Json.Null -> ""
  | Some ctx -> (
      match ctx with
      | Xmutil.Json.Obj cf ->
          let b = Buffer.create 256 in
          (match find cf "stores" with
          | Some (Xmutil.Json.List stores) ->
              List.iter
                (fun s ->
                  match s with
                  | Xmutil.Json.Obj sf ->
                      Buffer.add_string b
                        (Printf.sprintf "  store %s: %d nodes, generation %d\n"
                           (try get_string sf "name" with Failure _ -> "?")
                           (try get_int sf "nodes" with Failure _ -> 0)
                           (try get_int sf "generation" with Failure _ -> 0))
                  | _ -> ())
                stores
          | _ -> ());
          (match find cf "slo" with
          | Some (Xmutil.Json.Obj sf) ->
              Buffer.add_string b
                (Printf.sprintf "  slo: %s\n"
                   (try get_string sf "status" with Failure _ -> "?"))
          | _ -> ());
          if Buffer.length b = 0 then ""
          else "context:\n" ^ Buffer.contents b
      | _ -> "")

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
