(* Aggregate a query log after the fact.

   Percentiles go through a scoped Xmobs.Metrics histogram rather than a
   sort: identical machinery to the live /metrics endpoint, so an offline
   p95 and a scraped p95 agree to the same <5% bucket quantization. *)

type pct = { p50 : float; p95 : float; p99 : float; mean : float; max : float }

type lat = {
  l_count : int;
  l_wall_ms : pct;
  l_eval_ms : pct;
  l_render_ms : pct;
}

type summary = {
  log_path : string;
  total : int;
  malformed : int;
  by_outcome : (string * int) list;
  by_source : (string * int) list;
  error_rate : float;
  wall_ms : pct;
  eval_ms : pct;
  render_ms : pct;
  blocks : pct;
  blocks_total : int;
  cached : lat;
  uncached : lat;
  slowest : Xmobs.Qlog.entry list;
}

let zero_pct = { p50 = 0.0; p95 = 0.0; p99 = 0.0; mean = 0.0; max = 0.0 }

let percentiles values =
  match values with
  | [] -> zero_pct
  | _ ->
      let r = Xmobs.Metrics.create () in
      let h = Xmobs.Metrics.histogram ~r "series" in
      List.iter (Xmobs.Metrics.hist_add h) values;
      let pct q =
        match Xmobs.Metrics.percentile ~r "series" q with
        | Some v -> v
        | None -> 0.0
      in
      let n = List.length values in
      let sum = List.fold_left ( +. ) 0.0 values in
      let max = List.fold_left Float.max neg_infinity values in
      { p50 = pct 0.5; p95 = pct 0.95; p99 = pct 0.99;
        mean = sum /. float_of_int n; max }

let load_one path =
  let ic = open_in_bin path in
  let entries = ref [] in
  let malformed = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Xmobs.Qlog.entry_of_json (Xmutil.Json.of_string line) with
         | e -> entries := e :: !entries
         | exception (Xmutil.Json.Parse_error _ | Failure _) ->
             incr malformed
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !entries, !malformed)

let load path =
  (* Size rotation (--qlog-max-mb) renames the previous log to FILE.1;
     analyzing only FILE would silently drop the older half of the
     history.  Auto-merge the pair in timestamp order (a stable sort, so
     same-stamp records keep their file order). *)
  let entries, malformed = load_one path in
  let rotated = path ^ ".1" in
  if not (Sys.file_exists rotated) then (entries, malformed)
  else
    let old_entries, old_malformed =
      match load_one rotated with
      | r -> r
      | exception Sys_error _ -> ([], 0)
    in
    let merged =
      List.stable_sort
        (fun (a : Xmobs.Qlog.entry) (b : Xmobs.Qlog.entry) ->
          Float.compare a.Xmobs.Qlog.ts b.Xmobs.Qlog.ts)
        (old_entries @ entries)
    in
    (merged, malformed + old_malformed)

let outcome_names = [ "ok"; "parse-error"; "type-mismatch"; "internal" ]

let entry_blocks (e : Xmobs.Qlog.entry) =
  match e.Xmobs.Qlog.io with
  | None -> 0
  | Some io -> io.Xmobs.Qlog.blocks_read + io.Xmobs.Qlog.blocks_written

let analyze ?(top = 5) ~log_path ~malformed entries =
  let total = List.length entries in
  let count p = List.length (List.filter p entries) in
  let by_outcome =
    List.map
      (fun name ->
        ( name,
          count (fun (e : Xmobs.Qlog.entry) ->
              Xmobs.Qlog.outcome_to_string e.Xmobs.Qlog.outcome = name) ))
      outcome_names
  in
  let by_source =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : Xmobs.Qlog.entry) ->
        let s = e.Xmobs.Qlog.source in
        Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
      entries;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let errors =
    count (fun (e : Xmobs.Qlog.entry) -> e.Xmobs.Qlog.outcome <> Xmobs.Qlog.Ok)
  in
  let ms ?(among = entries) f = List.map (fun e -> 1000.0 *. f e) among in
  let wall_ms = percentiles (ms (fun e -> e.Xmobs.Qlog.wall_s)) in
  let eval_ms = percentiles (ms (fun e -> e.Xmobs.Qlog.eval_s)) in
  let render_ms = percentiles (ms (fun e -> e.Xmobs.Qlog.render_s)) in
  (* The cached/uncached split: result-cache hits versus real
     executions.  Pre-cache logs have no [cached] field, which parses as
     false, so the whole history lands in [uncached] and the split
     degenerates gracefully. *)
  let lat_of among =
    {
      l_count = List.length among;
      l_wall_ms = percentiles (ms ~among (fun e -> e.Xmobs.Qlog.wall_s));
      l_eval_ms = percentiles (ms ~among (fun e -> e.Xmobs.Qlog.eval_s));
      l_render_ms = percentiles (ms ~among (fun e -> e.Xmobs.Qlog.render_s));
    }
  in
  let cached_entries, uncached_entries =
    List.partition (fun (e : Xmobs.Qlog.entry) -> e.Xmobs.Qlog.cached) entries
  in
  let blocks_list = List.map (fun e -> float_of_int (entry_blocks e)) entries in
  let blocks = percentiles blocks_list in
  let blocks_total =
    List.fold_left (fun acc e -> acc + entry_blocks e) 0 entries
  in
  let slowest =
    let sorted =
      List.sort
        (fun (a : Xmobs.Qlog.entry) (b : Xmobs.Qlog.entry) ->
          Float.compare b.Xmobs.Qlog.wall_s a.Xmobs.Qlog.wall_s)
        entries
    in
    List.filteri (fun i _ -> i < top) sorted
  in
  {
    log_path;
    total;
    malformed;
    by_outcome;
    by_source;
    error_rate = (if total = 0 then 0.0 else float_of_int errors /. float_of_int total);
    wall_ms;
    eval_ms;
    render_ms;
    blocks;
    blocks_total;
    cached = lat_of cached_entries;
    uncached = lat_of uncached_entries;
    slowest;
  }

let truncate_guard g =
  let g = String.map (fun c -> if c = '\n' then ' ' else c) g in
  if String.length g <= 60 then g else String.sub g 0 57 ^ "..."

let fmt_ms v = Printf.sprintf "%.2fms" v

let pct_line name p =
  Printf.sprintf "%s: p50=%s p95=%s p99=%s mean=%s max=%s" name (fmt_ms p.p50)
    (fmt_ms p.p95) (fmt_ms p.p99) (fmt_ms p.mean) (fmt_ms p.max)

let to_text s =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "queries: %d (%s); error rate %.1f%%\n" s.total
       (String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) s.by_outcome))
       (100.0 *. s.error_rate));
  if s.malformed > 0 then
    Buffer.add_string b (Printf.sprintf "malformed lines: %d\n" s.malformed);
  if s.by_source <> [] then
    Buffer.add_string b
      (Printf.sprintf "sources: %s\n"
         (String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) s.by_source)));
  if s.total > 0 then begin
    Buffer.add_string b (pct_line "wall" s.wall_ms ^ "\n");
    Buffer.add_string b (pct_line "eval" s.eval_ms ^ "\n");
    Buffer.add_string b (pct_line "render" s.render_ms ^ "\n");
    Buffer.add_string b
      (Printf.sprintf "blocks: total=%d p50=%.0f p95=%.0f p99=%.0f\n"
         s.blocks_total s.blocks.p50 s.blocks.p95 s.blocks.p99);
    (* Only worth a table when the log actually has cache hits; a
       pre-cache (or cache-less) log prints exactly what it always did. *)
    if s.cached.l_count > 0 then begin
      Buffer.add_string b
        (Printf.sprintf "cached: %d of %d (%.1f%%)\n" s.cached.l_count s.total
           (100.0 *. float_of_int s.cached.l_count /. float_of_int s.total));
      let lat_block label l =
        Buffer.add_string b (pct_line (label ^ " wall") l.l_wall_ms ^ "\n");
        Buffer.add_string b (pct_line (label ^ " eval") l.l_eval_ms ^ "\n");
        Buffer.add_string b (pct_line (label ^ " render") l.l_render_ms ^ "\n")
      in
      lat_block "cached" s.cached;
      if s.uncached.l_count > 0 then lat_block "uncached" s.uncached
    end;
    if s.slowest <> [] then begin
      Buffer.add_string b "slowest:\n";
      List.iteri
        (fun i (e : Xmobs.Qlog.entry) ->
          Buffer.add_string b
            (Printf.sprintf "  %d. %8s %-13s %-7s %s%s%s\n" (i + 1)
               (fmt_ms (1000.0 *. e.Xmobs.Qlog.wall_s))
               (Xmobs.Qlog.outcome_to_string e.Xmobs.Qlog.outcome)
               e.Xmobs.Qlog.source
               (if e.Xmobs.Qlog.doc = "" then ""
                else Printf.sprintf "doc=%s " e.Xmobs.Qlog.doc)
               (truncate_guard e.Xmobs.Qlog.guard)
               (match e.Xmobs.Qlog.trace_id with
               | None -> ""
               | Some tid -> " trace=" ^ tid)))
        s.slowest
    end
  end;
  Buffer.contents b

let pct_to_json p =
  Xmutil.Json.Obj
    [ ("p50", Xmutil.Json.Float p.p50); ("p95", Xmutil.Json.Float p.p95);
      ("p99", Xmutil.Json.Float p.p99); ("mean", Xmutil.Json.Float p.mean);
      ("max", Xmutil.Json.Float p.max) ]

let lat_to_json l =
  Xmutil.Json.Obj
    [ ("queries", Xmutil.Json.Int l.l_count);
      ("wall_ms", pct_to_json l.l_wall_ms);
      ("eval_ms", pct_to_json l.l_eval_ms);
      ("render_ms", pct_to_json l.l_render_ms) ]

let to_json s =
  Xmutil.Json.Obj
    [ ("bench", Xmutil.Json.String "serve");
      ("log", Xmutil.Json.String s.log_path);
      ("queries", Xmutil.Json.Int s.total);
      ("malformed", Xmutil.Json.Int s.malformed);
      ("by_outcome",
       Xmutil.Json.Obj
         (List.map (fun (k, v) -> (k, Xmutil.Json.Int v)) s.by_outcome));
      ("by_source",
       Xmutil.Json.Obj
         (List.map (fun (k, v) -> (k, Xmutil.Json.Int v)) s.by_source));
      ("error_rate", Xmutil.Json.Float s.error_rate);
      ("wall_ms", pct_to_json s.wall_ms);
      ("eval_ms", pct_to_json s.eval_ms);
      ("render_ms", pct_to_json s.render_ms);
      ("cached", lat_to_json s.cached);
      ("uncached", lat_to_json s.uncached);
      ("blocks",
       Xmutil.Json.Obj
         [ ("total", Xmutil.Json.Int s.blocks_total);
           ("p50", Xmutil.Json.Float s.blocks.p50);
           ("p95", Xmutil.Json.Float s.blocks.p95);
           ("p99", Xmutil.Json.Float s.blocks.p99) ]);
      ("slowest",
       Xmutil.Json.List
         (List.map
            (fun (e : Xmobs.Qlog.entry) ->
              Xmutil.Json.Obj
                ([ ("id", Xmutil.Json.Int e.Xmobs.Qlog.id);
                   ("wall_ms", Xmutil.Json.Float (1000.0 *. e.Xmobs.Qlog.wall_s));
                   ("outcome",
                    Xmutil.Json.String
                      (Xmobs.Qlog.outcome_to_string e.Xmobs.Qlog.outcome));
                   ("source", Xmutil.Json.String e.Xmobs.Qlog.source);
                   ("doc", Xmutil.Json.String e.Xmobs.Qlog.doc);
                   ("guard",
                    Xmutil.Json.String (truncate_guard e.Xmobs.Qlog.guard)) ]
                @
                match e.Xmobs.Qlog.trace_id with
                | None -> []
                | Some tid -> [ ("trace_id", Xmutil.Json.String tid) ]))
            s.slowest)) ]

(* ---------- warehouse cross-reference (--db) ---------- *)

type guard_stats = {
  g_hash : string;
  g_guard : string;
  g_count : int;
  g_mean_wall_ms : float;
  g_ops : Xmobs.Statdb.summary list;
}

let cross_reference ~db entries =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Xmobs.Qlog.entry) ->
      let h = e.Xmobs.Qlog.guard_hash in
      match Hashtbl.find_opt tbl h with
      | Some (guard, count, wall) ->
          Hashtbl.replace tbl h (guard, count + 1, wall +. e.Xmobs.Qlog.wall_s)
      | None ->
          order := h :: !order;
          Hashtbl.replace tbl h (e.Xmobs.Qlog.guard, 1, e.Xmobs.Qlog.wall_s))
    entries;
  List.rev_map
    (fun h ->
      let guard, count, wall = Hashtbl.find tbl h in
      {
        g_hash = h;
        g_guard = truncate_guard guard;
        g_count = count;
        g_mean_wall_ms = 1000.0 *. wall /. float_of_int (max 1 count);
        g_ops = Xmobs.Statdb.guard_ops db ~guard_hash:h;
      })
    !order
  |> List.sort (fun a b -> compare b.g_count a.g_count)

let op_line (s : Xmobs.Statdb.summary) =
  let per_call v = v /. float_of_int (max 1 s.Xmobs.Statdb.calls) in
  Printf.sprintf "%s: calls=%d self/call=%.3fms out/call=%.0f pairs/call=%.0f%s"
    s.Xmobs.Statdb.s_op s.Xmobs.Statdb.calls
    (per_call s.Xmobs.Statdb.self_us /. 1000.0)
    (per_call (float_of_int s.Xmobs.Statdb.out_nodes))
    (per_call (float_of_int s.Xmobs.Statdb.pairs))
    (if s.Xmobs.Statdb.qerr_n = 0 then ""
     else
       Printf.sprintf " q-err mean=%.2f max=%.2f"
         (s.Xmobs.Statdb.qerr_sum /. float_of_int s.Xmobs.Statdb.qerr_n)
         s.Xmobs.Statdb.qerr_max)

let op_json (s : Xmobs.Statdb.summary) =
  Xmutil.Json.Obj
    [ ("op", Xmutil.Json.String s.Xmobs.Statdb.s_op);
      ("calls", Xmutil.Json.Int s.Xmobs.Statdb.calls);
      ("self_us", Xmutil.Json.Float s.Xmobs.Statdb.self_us);
      ("out_nodes", Xmutil.Json.Int s.Xmobs.Statdb.out_nodes);
      ("pairs", Xmutil.Json.Int s.Xmobs.Statdb.pairs);
      ("qerr_n", Xmutil.Json.Int s.Xmobs.Statdb.qerr_n);
      ("qerr_sum", Xmutil.Json.Float s.Xmobs.Statdb.qerr_sum);
      ("qerr_max", Xmutil.Json.Float s.Xmobs.Statdb.qerr_max) ]

let cross_reference_to_text ?(top_ops = 5) gs =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "warehouse cross-reference: %d guard(s)\n" (List.length gs));
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "  %s \"%s\": %d quer%s, mean wall %.2fms%s\n" g.g_hash
           g.g_guard g.g_count
           (if g.g_count = 1 then "y" else "ies")
           g.g_mean_wall_ms
           (if g.g_ops = [] then " (no warehouse history)" else ""));
      List.iteri
        (fun i s -> if i < top_ops then Buffer.add_string b ("    " ^ op_line s ^ "\n"))
        g.g_ops)
    gs;
  Buffer.contents b

let cross_reference_to_json gs =
  Xmutil.Json.List
    (List.map
       (fun g ->
         Xmutil.Json.Obj
           [ ("guard_hash", Xmutil.Json.String g.g_hash);
             ("guard", Xmutil.Json.String g.g_guard);
             ("queries", Xmutil.Json.Int g.g_count);
             ("mean_wall_ms", Xmutil.Json.Float g.g_mean_wall_ms);
             ("ops", Xmutil.Json.List (List.map op_json g.g_ops)) ])
       gs)

type comparison = {
  baseline_path : string;
  baseline_p95_ms : float;
  current_p95_ms : float;
  ratio : float;
  tolerance : float;
  regression : bool;
}

let compare_baseline ?(tolerance = 0.25) ~baseline_path s =
  match Xmutil.Json.read_file baseline_path with
  | exception Sys_error m -> Error m
  | exception Xmutil.Json.Parse_error { pos; msg } ->
      Error (baseline_path ^ ": " ^ Xmutil.Json.error_message ~pos ~msg)
  | json -> (
      match Xmutil.Json.number_at json [ "wall_ms"; "p95" ] with
      | None ->
          Error (baseline_path ^ ": missing wall_ms.p95 (not a stats artifact?)")
      | Some baseline_p95_ms ->
          let current_p95_ms = s.wall_ms.p95 in
          let ratio =
            if baseline_p95_ms <= 0.0 then 1.0
            else current_p95_ms /. baseline_p95_ms
          in
          Ok
            {
              baseline_path;
              baseline_p95_ms;
              current_p95_ms;
              ratio;
              tolerance;
              regression = ratio > 1.0 +. tolerance;
            })

let comparison_to_text c =
  Printf.sprintf
    "compare: baseline %s p95=%s, current p95=%s (%.2fx, tolerance %.0f%%): %s\n"
    c.baseline_path (fmt_ms c.baseline_p95_ms) (fmt_ms c.current_p95_ms)
    c.ratio (100.0 *. c.tolerance)
    (if c.regression then "REGRESSION" else "ok")

let comparison_to_json c =
  Xmutil.Json.Obj
    [ ("baseline", Xmutil.Json.String c.baseline_path);
      ("baseline_p95_ms", Xmutil.Json.Float c.baseline_p95_ms);
      ("current_p95_ms", Xmutil.Json.Float c.current_p95_ms);
      ("ratio", Xmutil.Json.Float c.ratio);
      ("tolerance", Xmutil.Json.Float c.tolerance);
      ("verdict",
       Xmutil.Json.String (if c.regression then "regression" else "ok")) ]
