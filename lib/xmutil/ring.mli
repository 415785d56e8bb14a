(** A bounded ring: keeps the last [cap] values pushed, overwriting the
    oldest when full.

    Slots are allocated as the ring fills, doubling up to [cap], so a
    ring that is created per request but holds a handful of values never
    pays for its bound.  A push allocates only when the slot array
    grows.

    Not synchronised.  Racing pushes may lose values, but never overrun
    the bound or index out of the slot array. *)

type 'a t

val create : int -> 'a t
(** [create cap] is an empty ring holding at most [max 1 cap] values.
    Allocates no slots. *)

val push : 'a t -> 'a -> unit
(** Append a value, evicting the oldest one when the ring is full. *)

val to_list : 'a t -> 'a list
(** The retained values, oldest first. *)

val length : 'a t -> int
(** Values retained; never more than the capacity. *)

val clear : 'a t -> unit
(** Drop every value and release the slots. *)
