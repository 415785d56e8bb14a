(* Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

   A frame aggregates every evaluation of one operator at one position in
   the tree: call count, cumulative and self wall time, input/output node
   counts, closest-pair count, and the block-I/O delta observed while the
   operator (and its subtree) ran.  Frames merge by name under their
   parent, so an XQuery subexpression evaluated 10,000 times inside a
   FLWOR loop shows up once with calls=10000 — the usual EXPLAIN ANALYZE
   presentation.

   Block I/O is attributed by snapshot/delta: [enter] and [exit] read a
   cumulative block counter (fed by [Store.Io_stats] through
   [set_io_source]) and charge the difference to the frame.

   The profiler is off by default.  Every entry point checks a single
   atomic flag; instrumented hot paths guard on [profiling ()] and use the
   allocation-free [enter]/[exit] pair, so the disabled path is one branch
   and no allocation.  Cold call sites can use the closure-based [op]. *)

type frame = {
  name : string;
  mutable calls : int;
  mutable total_us : float; (* cumulative: includes time in children *)
  mutable child_us : float; (* time attributed to child frames *)
  mutable in_count : int;
  mutable out_count : int;
  mutable pairs : int; (* closest pairs / join attachments *)
  mutable blocks_read : int; (* block-I/O delta over the frame's subtree *)
  mutable blocks_written : int;
  mutable children : frame list; (* newest first; reversed on export *)
}

type token = { fr : frame; t0 : float; r0 : int; w0 : int }

type state = {
  mutable tops : frame list; (* root frames, newest first *)
  mutable stack : token list; (* open activations, innermost first *)
}

let on = Atomic.make false

(* Retained after [disable] so a run can be exported post mortem. *)
let state : state option ref = ref None

let profiling () = Atomic.get on

let enable () =
  state := Some { tops = []; stack = [] };
  Atomic.set on true

let disable () = Atomic.set on false

(* Discard collected frames without changing the enabled flag. *)
let reset () =
  if !state <> None then state := Some { tops = []; stack = [] }

(* Cumulative (blocks_read, blocks_written) across every store instance;
   registered by [Store.Io_stats] at module initialisation.  [None] until
   the store library is linked, in which case deltas read as zero. *)
let io_source : (unit -> int * int) option ref = ref None

let set_io_source f = io_source := Some f

let io_now () = match !io_source with None -> (0, 0) | Some f -> f ()

let fresh name =
  { name; calls = 0; total_us = 0.0; child_us = 0.0; in_count = 0;
    out_count = 0; pairs = 0; blocks_read = 0; blocks_written = 0;
    children = [] }

(* Returned by [enter] when the profiler is off so [exit] can ignore the
   activation without a state lookup. *)
let dummy = { fr = fresh ""; t0 = 0.0; r0 = 0; w0 = 0 }

let enter name =
  if not (Atomic.get on) then dummy
  else
    match !state with
    | None -> dummy
    | Some st ->
        let siblings =
          match st.stack with [] -> st.tops | t :: _ -> t.fr.children
        in
        let fr =
          match List.find_opt (fun f -> f.name = name) siblings with
          | Some f -> f
          | None ->
              let f = fresh name in
              (match st.stack with
              | [] -> st.tops <- f :: st.tops
              | t :: _ -> t.fr.children <- f :: t.fr.children);
              f
        in
        let r0, w0 = io_now () in
        let tok = { fr; t0 = Unix.gettimeofday (); r0; w0 } in
        st.stack <- tok :: st.stack;
        tok

let exit ?(in_count = 0) ?(out_count = 0) tok =
  if tok != dummy then
    match !state with
    | None -> ()
    | Some st ->
        let elapsed = (Unix.gettimeofday () -. tok.t0) *. 1e6 in
        let r1, w1 = io_now () in
        let fr = tok.fr in
        fr.calls <- fr.calls + 1;
        fr.total_us <- fr.total_us +. elapsed;
        fr.in_count <- fr.in_count + in_count;
        fr.out_count <- fr.out_count + out_count;
        fr.blocks_read <- fr.blocks_read + (r1 - tok.r0);
        fr.blocks_written <- fr.blocks_written + (w1 - tok.w0);
        (match st.stack with
        | t :: rest when t == tok -> st.stack <- rest
        | _ -> st.stack <- List.filter (fun t -> t != tok) st.stack);
        (match st.stack with
        | parent :: _ -> parent.fr.child_us <- parent.fr.child_us +. elapsed
        | [] -> ())

(* Attribute counts to the innermost open operator. *)
let add_in n =
  if Atomic.get on then
    match !state with
    | Some { stack = t :: _; _ } -> t.fr.in_count <- t.fr.in_count + n
    | _ -> ()

let add_out n =
  if Atomic.get on then
    match !state with
    | Some { stack = t :: _; _ } -> t.fr.out_count <- t.fr.out_count + n
    | _ -> ()

let add_pairs n =
  if Atomic.get on then
    match !state with
    | Some { stack = t :: _; _ } -> t.fr.pairs <- t.fr.pairs + n
    | _ -> ()

let op name f =
  if not (Atomic.get on) then f ()
  else
    let tok = enter name in
    match f () with
    | v ->
        exit tok;
        v
    | exception e ->
        exit tok;
        raise e

(* ---------- reads ---------- *)

let self_us fr = Float.max 0.0 (fr.total_us -. fr.child_us)

let roots () =
  match !state with None -> [] | Some st -> List.rev st.tops

let ordered_children fr = List.rev fr.children

(* Walk a name path from the roots: [lookup ["compile"; "morph"]]. *)
let lookup path =
  let rec go frames = function
    | [] -> None
    | [ name ] -> List.find_opt (fun f -> f.name = name) frames
    | name :: rest -> (
        match List.find_opt (fun f -> f.name = name) frames with
        | Some f -> go (ordered_children f) rest
        | None -> None)
  in
  go (roots ()) path

(* ---------- export ---------- *)

(* Algebra.pp-style indented operator tree, one annotated line per node. *)
let to_text () =
  let b = Buffer.create 1024 in
  let rec go indent fr =
    Buffer.add_string b
      (Printf.sprintf "%s%-*s calls=%d time=%.3fms self=%.3fms in=%d out=%d%s blocks=%dr+%dw\n"
         indent
         (max 1 (32 - String.length indent))
         fr.name fr.calls (fr.total_us /. 1e3) (self_us fr /. 1e3)
         fr.in_count fr.out_count
         (if fr.pairs > 0 then Printf.sprintf " pairs=%d" fr.pairs else "")
         fr.blocks_read fr.blocks_written);
    List.iter (go (indent ^ "  ")) (ordered_children fr)
  in
  List.iter (go "") (roots ());
  Buffer.contents b

let rec frame_json fr =
  Xmutil.Json.Obj
    ([ ("name", Xmutil.Json.String fr.name);
       ("calls", Xmutil.Json.Int fr.calls);
       ("total_us", Xmutil.Json.Float fr.total_us);
       ("self_us", Xmutil.Json.Float (self_us fr));
       ("in", Xmutil.Json.Int fr.in_count);
       ("out", Xmutil.Json.Int fr.out_count);
       ("pairs", Xmutil.Json.Int fr.pairs);
       ("blocks_read", Xmutil.Json.Int fr.blocks_read);
       ("blocks_written", Xmutil.Json.Int fr.blocks_written) ]
    @
    match fr.children with
    | [] -> []
    | cs -> [ ("children", Xmutil.Json.List (List.rev_map frame_json cs)) ])

let to_json () =
  Xmutil.Json.Obj
    [ ("profile", Xmutil.Json.List (List.map frame_json (roots ()))) ]
