(** Operator frame trees — the data behind EXPLAIN ANALYZE.

    A request context ({!Ctx}) that keeps frames owns one {!tree}, which
    its regions ({!Ctx.region}, {!Ctx.enter}) record into.  Each region
    is charged to a {!frame} found (or created) by name under the
    innermost open region's frame, so the frame tree mirrors the
    operator tree. *)

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

(** One context's frames: the roots, and the pages its store charges
    crossed ({!Ctx.charge_read}). *)
type tree = {
  mutable tops : frame list;  (** root frames, newest first *)
  mutable blocks_r : int;
  mutable blocks_w : int;
}

val create : unit -> tree

val fresh : string -> frame
(** A frame with no calls, in no tree. *)

val child : tree -> frame option -> string -> frame
(** [child tree parent name] is the frame named [name] under [parent]
    ([None]: among the roots), created when there is none, so repeated
    evaluations aggregate into one frame. *)

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
