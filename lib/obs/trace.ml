(* Spans and their exporter.

   A span is a closed layer region of a request context (Ctx): its start,
   duration, parent span (the span open when it started), and key/value
   attributes.  The context keeps its spans in a bounded ring; the
   exporter renders a span list as Chrome [trace_event] JSON (load the
   file at chrome://tracing or ui.perfetto.dev). *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int; (* id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float; (* microseconds since the trace epoch *)
  dur_us : float;
  attrs : (string * value) list; (* newest first *)
}

(* ---------- export ---------- *)

let json_of_value = function
  | Bool b -> Xmutil.Json.Bool b
  | Int i -> Xmutil.Json.Int i
  | Float f -> Xmutil.Json.Float f
  | String s -> Xmutil.Json.String s

(* Chrome trace_event format: an object with a [traceEvents] list of
   complete ('X') events, timestamps and durations in microseconds.  One
   exporter for [--trace] files, per-request traces and incident
   bundles. *)
let json_of_entries spans =
  let item s =
    Xmutil.Json.Obj
      [ ("name", Xmutil.Json.String s.name); ("ts", Xmutil.Json.Float s.start_us);
        ("pid", Xmutil.Json.Int 1); ("tid", Xmutil.Json.Int 1);
        ("ph", Xmutil.Json.String "X"); ("dur", Xmutil.Json.Float s.dur_us);
        ("args",
         Xmutil.Json.Obj
           (List.rev_map (fun (k, v) -> (k, json_of_value v)) s.attrs)) ]
  in
  Xmutil.Json.Obj
    [ ("traceEvents", Xmutil.Json.List (List.map item spans));
      ("displayTimeUnit", Xmutil.Json.String "ms") ]
