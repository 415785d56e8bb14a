(* The data layer of [xmorph top]: fetch a daemon's /debug/timeseries and
   /stats, and render one dashboard frame (or a JSON snapshot for
   scripting).

   Rendering is plain-text-to-string: the CLI owns the refresh loop and
   the ANSI clear, so a frame is testable as a pure function of the two
   JSON documents.  All JSON navigation is tolerant — a daemon from an
   older or newer build that lacks a field renders as a dash, never a
   crash in the operator's monitoring tool. *)

type snapshot = {
  base : string; (* the daemon's base URL *)
  timeseries : Xmutil.Json.t;
  stats : Xmutil.Json.t;
}

module J = Xmutil.Json

(* ---------- fetch ---------- *)

let get_json ?timeout_s base target =
  match Http.request_url ?timeout_s ~meth:"GET" (base ^ target) with
  | Error m -> Error (Printf.sprintf "%s%s: %s" base target m)
  | Ok (status, _, body) when status = 200 -> (
      match J.of_string body with
      | j -> Ok j
      | exception J.Parse_error { pos; msg } ->
          Error (base ^ target ^ ": " ^ J.error_message ~pos ~msg))
  | Ok (status, _, _) ->
      Error (Printf.sprintf "%s%s: HTTP %d" base target status)

let fetch ?timeout_s base =
  (* Trailing slashes in a pasted URL are harmless. *)
  let base =
    if String.length base > 0 && base.[String.length base - 1] = '/' then
      String.sub base 0 (String.length base - 1)
    else base
  in
  match get_json ?timeout_s base "/debug/timeseries" with
  | Error m -> Error m
  | Ok timeseries -> (
      match get_json ?timeout_s base "/stats" with
      | Error m -> Error m
      | Ok stats -> Ok { base; timeseries; stats })

let to_json s =
  J.Obj
    [ ("base", J.String s.base);
      ("timeseries", s.timeseries);
      ("stats", s.stats) ]

(* ---------- one dashboard frame ---------- *)

let dash = "-"

let fmt_num = function
  | None -> dash
  | Some v ->
      if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
      else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
      else Printf.sprintf "%.2f" v

let fmt_ms = function
  | None -> dash
  | Some s -> Printf.sprintf "%.1fms" (s *. 1000.0)

let fmt_bytes = function
  | None -> dash
  | Some b ->
      if b >= 1073741824.0 then Printf.sprintf "%.2fGiB" (b /. 1073741824.0)
      else if b >= 1048576.0 then Printf.sprintf "%.1fMiB" (b /. 1048576.0)
      else if b >= 1024.0 then Printf.sprintf "%.1fKiB" (b /. 1024.0)
      else Printf.sprintf "%.0fB" b

let fmt_uptime = function
  | None -> dash
  | Some s ->
      let s = int_of_float s in
      if s >= 86400 then Printf.sprintf "%dd%02dh" (s / 86400) (s mod 86400 / 3600)
      else if s >= 3600 then Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)
      else if s >= 60 then Printf.sprintf "%dm%02ds" (s / 60) (s mod 60)
      else Printf.sprintf "%ds" s

(* A braille-free sparkline over the last seconds of a series: eight
   levels, scaled to the window maximum. *)
let sparkline counts =
  let levels = [| " "; "."; ":"; "-"; "="; "+"; "*"; "#" |] in
  let hi = List.fold_left max 0 counts in
  if hi = 0 then String.concat "" (List.map (fun _ -> " ") counts)
  else
    String.concat ""
      (List.map
         (fun c -> if c = 0 then " " else levels.(min 7 (1 + (c * 6 / hi))))
         counts)

let seconds_of s series =
  List.filter_map
    (function J.Int i -> Some i | _ -> None)
    (J.list_at s.timeseries [ "series"; series; "seconds" ])

let render s =
  let ts = s.timeseries and st = s.stats in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  let slo_status =
    match J.string_at ts [ "slo"; "status" ] with
    | Some st -> st
    | None -> "off"
  in
  line "xmorph top - %s  up %s  workers %s  slo %s" s.base
    (fmt_uptime (J.number_at ts [ "uptime_s" ]))
    (match J.int_at st [ "workers" ] with Some w -> string_of_int w | None -> dash)
    slo_status;
  let req_rate = J.number_at ts [ "series"; "requests"; "rate" ] in
  let err_rate = J.number_at ts [ "series"; "errors"; "rate" ] in
  let err_pct =
    match (req_rate, err_rate) with
    | Some r, Some e when r > 0.0 -> Printf.sprintf "%.1f%%" (100.0 *. e /. r)
    | _ -> dash
  in
  line "window %ss  req/s %s  err/s %s (%s)  blocks/s %s  rss %s"
    (match J.int_at ts [ "window_s" ] with Some w -> string_of_int w | None -> dash)
    (fmt_num req_rate) (fmt_num err_rate) err_pct
    (fmt_num (J.number_at ts [ "series"; "blocks"; "rate" ]))
    (fmt_bytes (J.number_at st [ "metrics"; "gauges"; "xmorph_rss_bytes" ]));
  line "query latency  p50 %s  p95 %s  p99 %s  (%s in window, %s lifetime)"
    (fmt_ms (J.number_at ts [ "series"; "queries"; "p50" ]))
    (fmt_ms (J.number_at ts [ "series"; "queries"; "p95" ]))
    (fmt_ms (J.number_at ts [ "series"; "queries"; "p99" ]))
    (match J.int_at ts [ "series"; "queries"; "count" ] with
    | Some n -> string_of_int n
    | None -> dash)
    (match J.int_at ts [ "series"; "queries"; "lifetime" ] with
    | Some n -> string_of_int n
    | None -> dash);
  (* Serve-cache health, read from the /stats metrics dump (the labeled
     hit/miss families and the resident-bytes gauge); daemons running
     without a cache simply have no such series, and the line is
     omitted — same tolerance as every other field. *)
  (let tier_counter family tier =
     J.int_at st
       [ "metrics"; "labeled_counters"; family; "{tier=" ^ tier ^ "}" ]
   in
   let rate tier =
     let hits = tier_counter "xmorph_cache_hits_total" tier in
     let misses = tier_counter "xmorph_cache_misses_total" tier in
     match (hits, misses) with
     | None, None -> None
     | h, m ->
         let h = Option.value ~default:0 h
         and m = Option.value ~default:0 m in
         if h + m = 0 then Some (dash, h, m)
         else
           Some
             ( Printf.sprintf "%.0f%%"
                 (100.0 *. float_of_int h /. float_of_int (h + m)),
               h,
               m )
   in
   match (rate "result", rate "plan") with
   | None, None -> ()
   | result, plan ->
       let part name = function
         | None -> Printf.sprintf "%s %s" name dash
         | Some (r, h, m) -> Printf.sprintf "%s %s (%d/%d)" name r h (h + m)
       in
       line "cache  %s  %s  bytes %s" (part "result" result) (part "plan" plan)
         (fmt_bytes (J.number_at st [ "metrics"; "gauges"; "xmorph_cache_bytes" ])));
  (* Incident bundles written by the flight recorder, from the labeled
     counter family in the /stats metrics dump; daemons running without
     --incident-dir (or with no incidents yet) have no series and the
     line is omitted. *)
  (let trigger_count kind =
     J.int_at st
       [ "metrics"; "labeled_counters"; "xmorph_incidents_total";
         "{trigger=" ^ kind ^ "}" ]
   in
   let counts = List.map (fun k -> (k, trigger_count k)) Xmobs.Flight.kinds in
   if List.exists (fun (_, c) -> c <> None) counts then begin
     let total =
       List.fold_left
         (fun acc (_, c) -> acc + Option.value ~default:0 c)
         0 counts
     in
     line "incidents: %d (%s)" total
       (String.concat "  "
          (List.filter_map
             (fun (k, c) ->
               match c with
               | None | Some 0 -> None
               | Some n -> Some (Printf.sprintf "%s %d" k n))
             counts))
   end);
  (* Alerting evaluator state, from the firing gauge plus the labeled
     transition family ([{rule=...,state=...}], labels alphabetical);
     daemons running without --alert-rules export neither and the line
     is omitted. *)
  (let firing = J.number_at st [ "metrics"; "gauges"; "xmorph_alerts_firing" ] in
   let per_state state =
     match
       J.path st [ "metrics"; "labeled_counters"; "xmorph_alerts_total" ]
     with
     | Some (J.Obj fs) ->
         List.fold_left
           (fun acc (k, v) ->
             match v with
             | J.Int n
               when String.ends_with ~suffix:("state=" ^ state ^ "}") k ->
                 acc + n
             | _ -> acc)
           0 fs
     | _ -> 0
   in
   match firing with
   | None -> ()
   | Some f ->
       line "alerts: %.0f firing  (%d fired, %d resolved lifetime)" f
         (per_state "firing") (per_state "resolved"));
  line "req %s" (sparkline (seconds_of s "requests"));
  (match
     List.filter_map
       (function
         | J.String r -> Some r
         | _ -> None)
       (J.list_at ts [ "slo"; "reasons" ])
   with
  | [] -> ()
  | reasons -> List.iter (fun r -> line "slo: %s" r) reasons);
  let outcomes =
    match J.path st [ "queries" ] with
    | Some (J.Obj fs) ->
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s %s" k
              (match v with J.Int i -> string_of_int i | _ -> dash))
          fs
    | _ -> []
  in
  if outcomes <> [] then line "queries: %s" (String.concat "  " outcomes);
  (match J.list_at ts [ "top_guards" ] with
  | [] -> ()
  | guards ->
      line "top guards by time:";
      List.iter
        (fun g ->
          let name = Option.value ~default:dash (J.string_at g [ "guard" ]) in
          let calls =
            match J.int_at g [ "calls" ] with
            | Some c -> string_of_int c
            | None -> dash
          in
          let total = J.number_at g [ "total_s" ] in
          let mean =
            match (total, J.int_at g [ "calls" ]) with
            | Some t, Some c when c > 0 -> fmt_ms (Some (t /. float_of_int c))
            | _ -> dash
          in
          line "  %s  calls %-6s total %ss  mean %s" name calls
            (fmt_num total) mean)
        guards);
  (match J.list_at st [ "stores" ] with
  | [] -> ()
  | stores ->
      line "stores: %s"
        (String.concat ", "
           (List.map
              (fun st_j ->
                Printf.sprintf "%s (%s nodes)"
                  (Option.value ~default:dash (J.string_at st_j [ "name" ]))
                  (match J.int_at st_j [ "nodes" ] with
                  | Some n -> string_of_int n
                  | None -> dash))
              stores)));
  Buffer.contents b
