(** Deterministic operation schedules: the same seed gives the same list. *)

val apportion : float array -> int -> int array
(** [apportion weights total] splits [total] into integer counts
    proportional to [weights] (largest-remainder rounding); the counts sum
    to [total]. *)

type oneshot_op = { doc : int; guard : int }

val oneshot : seed:int -> docs:int -> guards:int -> ops:int -> oneshot_op array
(** Whole cycles over every (document, guard) pair, each cycle in a fresh
    seeded order; [ops] is rounded up to a whole number of cycles. *)

type serve_op = Read of int  (** pool index *) | Write of int  (** write slot *)

type serve_spec = {
  requests : int;
  write_share : float;
  hot_share : float;
  hot : int;
  tail : int;
  windows : int;
}

val serve : seed:int -> serve_spec -> serve_op array
(** [windows] consecutive blocks of [requests / windows] operations.  Each
    block holds [round (write_share * block)] writes, spread one per
    stride, with slots numbered consecutively across the whole list; its
    reads hit hot guard [g] in proportion to [1 / (g + 1)] and every tail
    guard equally. *)

type pair = { pguard : int; template : int; bound : int }

val query_pairs :
  seed:int -> pairs:int -> guards:int -> templates:int ->
  max_bound:(int -> int) -> pair array
(** An equal number of pairs per (guard, template) combination, each with
    log-uniform [position() <=] bounds in [1, max_bound guard]. *)

val decade : int -> int
(** [floor (log10 bound)]: the selectivity decade a bound falls in. *)
