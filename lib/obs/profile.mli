(** Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

    The entry points record into the frame tree of the calling thread's
    request context ({!Ctx.profiled}, {!Ctx.keep_frames}), so concurrent
    contexts keep disjoint trees.  While no context keeps frames, every
    entry point is one atomic load and allocates nothing, whether or not
    contexts are installed.  Hot paths guard on {!profiling} and use the
    allocation-free {!enter}/{!exit} pair; {!op} is for cold sites. *)

include module type of struct include Frames end

val profiling : unit -> bool
(** {!Ctx.profiling}: true while any context keeps frames. *)

val enter : string -> token
(** Open an activation of an operator ({!Frames.push}) in the calling
    thread's context, if it keeps frames. *)

val exit : ?in_count:int -> ?out_count:int -> token -> unit
(** Close the activation ({!Frames.pop}). *)

(** Attribute input/output node counts or closest-pair counts to the
    innermost open frame (for loops that accumulate mid-activation). *)
val add_in : int -> unit

val add_out : int -> unit
val add_pairs : int -> unit

val op : string -> (unit -> 'a) -> 'a
(** [op name f] runs [f ()] inside an activation of [name]; closes it on
    exceptions too.  Closure-based: use only at cold call sites. *)
