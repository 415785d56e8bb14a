(* Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

   The entry points record into the frame tree of the calling thread's
   request context; the tree and its reads are {!Frames}, re-exported.
   Each first checks [Ctx.profiling ()], one atomic load (inlined across
   modules) of the count of frame-keeping contexts. *)

include Frames

let profiling = Ctx.profiling

(* Returned by [enter] when this thread's context keeps no frames, so
   [exit] can ignore the activation. *)
let dummy = push (create ()) ""

let enter name =
  if not (Ctx.profiling ()) then dummy
  else match Ctx.frames () with None -> dummy | Some tree -> push tree name

let exit ?in_count ?out_count tok =
  if tok != dummy then pop ?in_count ?out_count tok

(* Attribute counts to the innermost open operator. *)
let add_in n =
  if Ctx.profiling () then
    match Ctx.frames () with
    | Some { stack = t :: _; _ } -> t.fr.in_count <- t.fr.in_count + n
    | _ -> ()

let add_out n =
  if Ctx.profiling () then
    match Ctx.frames () with
    | Some { stack = t :: _; _ } -> t.fr.out_count <- t.fr.out_count + n
    | _ -> ()

let add_pairs n =
  if Ctx.profiling () then
    match Ctx.frames () with
    | Some { stack = t :: _; _ } -> t.fr.pairs <- t.fr.pairs + n
    | _ -> ()

let op name f =
  if not (Ctx.profiling ()) then f ()
  else
    match Ctx.frames () with
    | None -> f ()
    | Some tree -> (
        let tok = push tree name in
        match f () with
        | v ->
            pop tok;
            v
        | exception e ->
            pop tok;
            raise e)
