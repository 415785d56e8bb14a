(* Span-based tracing with a bounded ring-buffer sink.

   A span records a named region of work — its monotonic start, duration,
   parent span (the span open when it started), and key/value attributes.
   Completed spans and instantaneous events land in a fixed-capacity ring so
   a long run can never exhaust memory; the oldest entries are overwritten
   first.  Exporters render the ring as an indented text tree or as Chrome
   [trace_event] JSON (load the file at chrome://tracing or ui.perfetto.dev).

   The whole tracer is off by default.  Every entry point checks a single
   atomic flag and falls through to the traced function without allocating,
   so instrumented pipelines pay one branch when tracing is disabled. *)

type value = Bool of bool | Int of int | Float of float | String of string

type span = {
  id : int;
  parent : int; (* id of the enclosing span, or -1 for a root *)
  name : string;
  start_us : float; (* microseconds since the trace epoch *)
  mutable dur_us : float;
  mutable attrs : (string * value) list;
}

type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_parent : int;
  ev_counter : bool; (* a Chrome 'C' counter sample rather than an instant *)
  ev_attrs : (string * value) list;
}

type entry = Span of span | Event of event

(* One span recorder: a bounded ring of committed entries, the stack of
   open spans, and the epoch timestamps count from.  The global tracer is
   one; every request context (Ctx) owns another.  Single-writer by
   design; the global one tolerates racing domains because the ring
   does. *)
module Recorder = struct
  type t = {
    ring : entry Xmutil.Ring.t;
    mutable stack : span list; (* open spans, innermost first *)
    mutable next_id : int;
    epoch : float;
  }

  let create ~capacity ~epoch =
    { ring = Xmutil.Ring.create capacity; stack = []; next_id = 0; epoch }

  let now_us r = (Unix.gettimeofday () -. r.epoch) *. 1e6

  let current_parent r = match r.stack with [] -> -1 | s :: _ -> s.id

  let with_span ?(attrs = []) r name f =
    let s =
      { id = r.next_id; parent = current_parent r; name; start_us = now_us r;
        dur_us = 0.0; attrs }
    in
    r.next_id <- r.next_id + 1;
    r.stack <- s :: r.stack;
    let finish () =
      s.dur_us <- now_us r -. s.start_us;
      (match r.stack with
      | x :: rest when x == s -> r.stack <- rest
      | _ -> r.stack <- List.filter (fun x -> x != s) r.stack);
      Xmutil.Ring.push r.ring (Span s)
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

  let event ~counter ~attrs r name =
    Xmutil.Ring.push r.ring
      (Event
         { ev_name = name; ev_ts_us = now_us r; ev_parent = current_parent r;
           ev_counter = counter; ev_attrs = attrs })

  let entries r = Xmutil.Ring.to_list r.ring
end

let on = Atomic.make false

(* Retained after [disable] so a run can be exported post mortem. *)
let state : Recorder.t option ref = ref None

let default_capacity = 1 lsl 15

let enable ?(capacity = default_capacity) () =
  state := Some (Recorder.create ~capacity ~epoch:(Unix.gettimeofday ()));
  Atomic.set on true

let disable () = Atomic.set on false

let tracing () = Atomic.get on

let reset () = if Atomic.get on || !state <> None then enable ()

let with_span ?attrs name f =
  if not (Atomic.get on) then f ()
  else
    match !state with
    | None -> f ()
    | Some r -> Recorder.with_span ?attrs r name f

let add_attr key v =
  if Atomic.get on then
    match !state with Some r -> Recorder.add_attr r key v | None -> ()

let event ?(counter = false) ?(attrs = []) name =
  if Atomic.get on then
    match !state with
    | Some r -> Recorder.event ~counter ~attrs r name
    | None -> ()

let instant ?attrs name = event ?attrs name

(* A counter track sample, e.g. cumulative I/O blocks over time. *)
let counter name attrs = event ~counter:true ~attrs name

(* Ring contents, oldest first. *)
let entries () =
  match !state with None -> [] | Some r -> Recorder.entries r

let spans () =
  let ss = List.filter_map (function Span s -> Some s | Event _ -> None) (entries ()) in
  List.sort (fun a b -> compare (a.start_us, a.id) (b.start_us, b.id)) ss

let events () =
  List.filter_map (function Event e -> Some e | Span _ -> None) (entries ())

(* ---------- export ---------- *)

let json_of_value = function
  | Bool b -> Xmutil.Json.Bool b
  | Int i -> Xmutil.Json.Int i
  | Float f -> Xmutil.Json.Float f
  | String s -> Xmutil.Json.String s

let args_of attrs =
  Xmutil.Json.Obj (List.rev_map (fun (k, v) -> (k, json_of_value v)) attrs)

(* Chrome trace_event format: an object with a [traceEvents] list of complete
   ('X'), counter ('C') and instant ('i') events, timestamps in microseconds.
   Factored over an explicit entry list so per-request spans (Ctx) and
   incident bundles (Flight) export through the identical code path. *)
let json_of_entries es =
  let common name ts =
    [ ("name", Xmutil.Json.String name); ("ts", Xmutil.Json.Float ts);
      ("pid", Xmutil.Json.Int 1); ("tid", Xmutil.Json.Int 1) ]
  in
  let item = function
    | Span s ->
        Xmutil.Json.Obj
          (common s.name s.start_us
          @ [ ("ph", Xmutil.Json.String "X");
              ("dur", Xmutil.Json.Float s.dur_us); ("args", args_of s.attrs) ])
    | Event e ->
        Xmutil.Json.Obj
          (common e.ev_name e.ev_ts_us
          @ (if e.ev_counter then [ ("ph", Xmutil.Json.String "C") ]
             else [ ("ph", Xmutil.Json.String "i"); ("s", Xmutil.Json.String "t") ])
          @ [ ("args", args_of e.ev_attrs) ])
  in
  Xmutil.Json.Obj
    [ ("traceEvents", Xmutil.Json.List (List.map item es));
      ("displayTimeUnit", Xmutil.Json.String "ms") ]

let to_json () = json_of_entries (entries ())

let string_of_value = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s

(* Indented tree of spans (parents above children), events inline. *)
let to_text () =
  let es = entries () in
  let ids = Hashtbl.create 64 in
  List.iter (function Span s -> Hashtbl.replace ids s.id () | Event _ -> ()) es;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  let file parent e =
    if Hashtbl.mem ids parent then
      Hashtbl.replace children parent (e :: (Option.value ~default:[] (Hashtbl.find_opt children parent)))
    else roots := e :: !roots
  in
  List.iter (fun e -> file (match e with Span s -> s.parent | Event ev -> ev.ev_parent) e) es;
  let b = Buffer.create 1024 in
  let start_of = function Span s -> s.start_us | Event e -> e.ev_ts_us in
  let ordered l = List.sort (fun a b -> compare (start_of a) (start_of b)) l in
  let attrs_str attrs =
    if attrs = [] then ""
    else
      "  ["
      ^ String.concat " "
          (List.rev_map (fun (k, v) -> k ^ "=" ^ string_of_value v) attrs)
      ^ "]"
  in
  let rec emit depth e =
    let pad = String.make (2 * depth) ' ' in
    match e with
    | Span s ->
        Buffer.add_string b
          (Printf.sprintf "%s%-*s %10.3f ms%s\n" pad (max 1 (28 - 2 * depth))
             s.name (s.dur_us /. 1e3) (attrs_str s.attrs));
        List.iter (emit (depth + 1))
          (ordered (Option.value ~default:[] (Hashtbl.find_opt children s.id)))
    | Event ev ->
        Buffer.add_string b
          (Printf.sprintf "%s. %s @ %.3f ms%s\n" pad ev.ev_name
             (ev.ev_ts_us /. 1e3) (attrs_str ev.ev_attrs))
  in
  List.iter (emit 0) (ordered !roots);
  Buffer.contents b
