(** Operator frame trees — the data behind EXPLAIN ANALYZE.

    A request context ({!Ctx}) that keeps frames owns one {!tree}, which
    {!Profile} records into.  Each operator evaluation is charged to a
    {!frame} found (or created) by name under the innermost open frame,
    so the frame tree mirrors the operator tree. *)

type frame = {
  name : string;
  mutable calls : int;
  mutable total_us : float;  (** cumulative: includes time in children *)
  mutable child_us : float;  (** time attributed to child frames *)
  mutable in_count : int;
  mutable out_count : int;
  mutable pairs : int;  (** closest pairs / join attachments *)
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable children : frame list;  (** newest first; see {!ordered_children} *)
}

(** One context's frames: the roots, the open activations, and the
    pages its store charges crossed ({!Ctx.charge_read}). *)
type tree = {
  mutable tops : frame list;  (** root frames, newest first *)
  mutable stack : token list;  (** open activations, innermost first *)
  mutable blocks_r : int;
  mutable blocks_w : int;
}

(** An open activation; it carries its tree, so closing needs no lookup. *)
and token = { fr : frame; t0 : float; r0 : int; w0 : int; tree : tree }

val create : unit -> tree

val push : tree -> string -> token
(** [push tree name] opens an activation of [name] under the innermost
    open frame, aggregating into an existing frame of that name. *)

val pop : ?in_count:int -> ?out_count:int -> token -> unit
(** Close the activation: charge elapsed time and the block delta, bump
    the call count, and add the given node counts. *)

val roots : tree -> frame list
(** Root frames, oldest first. *)

val self_us : frame -> float
(** Self time: total minus time spent in child frames, clamped at 0. *)

val ordered_children : frame -> frame list
(** A frame's children, oldest first. *)

val lookup : frame list -> string list -> frame option
(** [lookup roots path] walks [path] by frame name from [roots], e.g.
    [lookup roots ["compile"; "morph"]]. *)

val to_text : frame list -> string
(** Annotated [Algebra.pp]-style indented tree: per node
    [calls= time= self= in= out= [pairs=] blocks=]. *)

val to_json : frame list -> Xmutil.Json.t
(** [{"profile": [...]}]; parses back via [Xmutil.Json.of_string]. *)
