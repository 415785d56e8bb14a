(* Spans and the recorder that keeps them.

   A span records a named region of work — its monotonic start, duration,
   parent span (the span open when it started), and key/value attributes.
   Completed spans land in a fixed-capacity ring so a long run can never
   exhaust memory; the oldest spans are overwritten first.  The exporter
   renders a span list as Chrome [trace_event] JSON (load the file at
   chrome://tracing or ui.perfetto.dev).

   There is no process-global recorder: every recorder belongs to a
   request context (Ctx), which is the one span sink. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int; (* id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float; (* microseconds since the trace epoch *)
  mutable dur_us : float;
  mutable attrs : (string * value) list;
}

(* One span recorder: a bounded ring of committed spans, the stack of
   open spans, and the epoch timestamps count from.  Single-writer: each
   request context owns one and records into it from its own thread. *)
module Recorder = struct
  type t = {
    ring : span Xmutil.Ring.t;
    mutable stack : span list; (* open spans, innermost first *)
    mutable next_id : int;
    epoch : float;
  }

  let create ~capacity ~epoch =
    { ring = Xmutil.Ring.create capacity; stack = []; next_id = 0; epoch }

  let now_us r = (Unix.gettimeofday () -. r.epoch) *. 1e6

  let with_span ?(attrs = []) r name f =
    let parent = match r.stack with [] -> -1 | s :: _ -> s.id in
    let s =
      { id = r.next_id; parent; name; start_us = now_us r; dur_us = 0.0;
        attrs }
    in
    r.next_id <- r.next_id + 1;
    r.stack <- s :: r.stack;
    let finish () =
      s.dur_us <- now_us r -. s.start_us;
      (match r.stack with
      | x :: rest when x == s -> r.stack <- rest
      | _ -> r.stack <- List.filter (fun x -> x != s) r.stack);
      Xmutil.Ring.push r.ring s
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

  (* Attach an attribute to the innermost open span. *)
  let add_attr r key v =
    match r.stack with s :: _ -> s.attrs <- (key, v) :: s.attrs | [] -> ()

  let entries r = Xmutil.Ring.to_list r.ring
end

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
