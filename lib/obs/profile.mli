(** Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

    Off by default and zero-cost when off: every entry point is a single
    branch on an atomic flag, and the disabled path performs no allocation
    (instrumented hot paths guard on {!profiling} and use the
    allocation-free {!enter}/{!exit} pair; {!op} is for cold sites).

    While enabled, each instrumented operator evaluation is charged to a
    {!frame} found (or created) by name under the innermost open frame —
    so repeated evaluations of the same operator aggregate into one node
    with a call count, and the frame tree mirrors the operator tree. *)

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

(** Open activation returned by {!enter}; pass it to {!exit}. *)
type token

val profiling : unit -> bool

(** [enable ()] turns the profiler on with a fresh frame tree. *)
val enable : unit -> unit

(** [disable ()] stops recording; the collected tree remains readable. *)
val disable : unit -> unit

(** [reset ()] discards collected frames, keeping the enabled state. *)
val reset : unit -> unit

(** [set_io_source f] registers the cumulative (blocks_read,
    blocks_written) reader used for per-frame block-I/O deltas.
    [Store.Io_stats] registers itself at module initialisation. *)
val set_io_source : (unit -> int * int) -> unit

(** [enter name] opens an activation of operator [name] under the
    innermost open frame.  Allocation-free and O(1) when disabled. *)
val enter : string -> token

(** [exit ?in_count ?out_count tok] closes the activation: charges
    elapsed time and the block-I/O delta, bumps the call count, and adds
    the given node counts. *)
val exit : ?in_count:int -> ?out_count:int -> token -> unit

(** Attribute input/output node counts or closest-pair counts to the
    innermost open frame (for loops that accumulate mid-activation). *)
val add_in : int -> unit

val add_out : int -> unit
val add_pairs : int -> unit

(** [op name f] runs [f ()] inside an activation of [name]; closes it on
    exceptions too.  Closure-based: use only at cold call sites. *)
val op : string -> (unit -> 'a) -> 'a

(** Self time: total minus time spent in child frames, clamped at 0. *)
val self_us : frame -> float

(** Root frames, oldest first. *)
val roots : unit -> frame list

(** A frame's children, oldest first. *)
val ordered_children : frame -> frame list

(** [lookup path] walks [path] by frame name from the roots, e.g.
    [lookup ["compile"; "morph"]]. *)
val lookup : string list -> frame option

(** Annotated [Algebra.pp]-style indented tree: per node
    [calls= time= self= in= out= [pairs=] blocks=]. *)
val to_text : unit -> string

(** JSON export; parses back via [Xmutil.Json.of_string]. *)
val to_json : unit -> Xmutil.Json.t
