(** The closest join (Def. 2) over a node table.

    A node table numbers its nodes by preorder rank and keeps each node's
    parent ([-1] at a root).  Ids then give document order, and every
    question the join asks of a node's Dewey number has an integer answer:

    - two nodes compare in document order as their ids do;
    - a node's [l]-prefix is its ancestor at level [l] (a root has level
      1), reached by [depth - l] parent hops;
    - the common prefix length of two nodes is the level of their least
      common ancestor, [0] when they lie in different trees.

    Every instance of a path type sits at the type's depth, so one hop
    count serves a whole type.  The functions below take a document-ordered
    row of node ids all at one depth: the instances of a type, or of a
    target node in an output document. *)

val ancestor : int array -> int -> hops:int -> int
(** [ancestor parent i ~hops] is the ancestor [hops] levels above [i]
    ([i] itself for [0]).  Requires [i] to be at least [hops] deep. *)

val lca_level : int array -> int -> int -> int -> int -> int
(** [lca_level parent x dx y dy] is the level of the least common ancestor
    of [x] (at depth [dx]) and [y] (at depth [dy]): their common Dewey
    prefix length, [0] when no path connects them. *)

val level : parent:int array -> int array -> depth_a:int -> int array -> depth_b:int -> int
(** [level ~parent a ~depth_a b ~depth_b] is the maximal {!lca_level} over
    every pair of [a] and [b] (both ascending): the level at which the two
    sets are closest, [0] when either is empty.  One merge pass: for
    [x <= y <= z] in document order the LCA of [x] and [z] is no deeper
    than that of [y] and [z], so the maximum is reached at a pair adjacent
    in the merged order. *)

type runs = private {
  keys : int array;  (** each run's common ancestor, ascending *)
  offs : int array;
      (** run [r] is positions [offs.(r)] to [offs.(r + 1) - 1] of the row *)
}
(** A row grouped into maximal runs of entries sharing their ancestor at
    one level, which is a prefix of the paper's GroupedSequence table
    (Fig. 8). *)

val no_runs : runs
(** No entries, no runs. *)

val runs : parent:int array -> hops:int -> int array -> runs
(** Group an ascending row by each entry's ancestor [hops] levels up. *)

val bisect : int array -> int -> int -> int -> int
(** [bisect a x lo hi] is the first index in [[lo, hi)] of the ascending
    [a] holding at least [x] ([hi] when none does). *)

val seek : int array -> int -> int -> int -> int
(** [seek a x lo hi] is {!bisect}'s answer when it is at or after [lo],
    found by galloping forward from [lo]: over ascending [x]s, each search
    starting from the previous answer costs the logarithm of its step, not
    of the row. *)

val find : parent:int array -> hops:int -> runs -> int array -> int array
(** [find ~parent ~hops runs nodes] is, for each of the ascending [nodes],
    the index of the run whose key is the node's ancestor [hops] levels up,
    or [-1] when no run has it.  One forward pass over the runs. *)
