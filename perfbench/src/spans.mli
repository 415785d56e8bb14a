(** In-memory spans recorded by the benchmark around layer calls. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  op : string;  (** operation id shared by every span of one operation *)
  start : float;  (** seconds *)
  stop : float;
}

val enable : unit -> unit

val with_op : string -> (unit -> 'a) -> 'a
(** Run [f] with [op] as the calling thread's operation id.  Only [f] runs
    when recording is off. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] as a span named [name], child of the calling thread's
    innermost open span.  Only [f] runs when recording is off. *)

val record : op:string -> name:string -> start:float -> stop:float -> unit
(** Add a root span measured elsewhere (a served request timed by the load
    generator, an in-process replay step). *)

val all : unit -> span list
(** Every recorded span, in completion order. *)

val self_times : span list -> (span * float) list
(** Each span with its self time: duration minus the union of its
    children's intervals clipped to it (seconds). *)

val self_by_op : span list -> (string, float list) Hashtbl.t
(** Layer name -> self seconds summed within each operation it appeared in
    (one value per operation). *)

val to_json : span list -> Xmutil.Json.t
