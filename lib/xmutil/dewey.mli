(** Dewey (prefix-based) node numbers.

    Every node in an indexed XML document carries a Dewey number: the root is
    [1], its i-th child is [1.i], and so on (Sec. VII of the paper).  Two
    facts make Dewey numbers the engine of the closest join:

    - comparing numbers lexicographically yields document order, and
    - the length of the longest common prefix of two numbers is the level of
      the nodes' least common ancestor, so
      [distance v w = level v + level w - 2 * common_prefix_len v w]. *)

type t = int array

val root : t

val child : t -> int -> t
(** [child d i] is the Dewey number of the [i]-th (1-based) child of [d]. *)

val level : t -> int
(** Depth in the tree; the root has level 1. *)

val compare : t -> t -> int
(** Lexicographic comparison = document (preorder) order. *)

val equal : t -> t -> bool

val common_prefix_len : t -> t -> int
(** Length of the longest common prefix, i.e. the level of the LCA. *)

val is_prefix : t -> t -> bool
(** [is_prefix p d] holds when [p] is an ancestor-or-self prefix of [d]. *)

val prefix : t -> int -> t
(** [prefix d l] is the ancestor of [d] at level [l]. Requires
    [1 <= l <= level d]. *)

val distance : t -> t -> int
(** Number of edges on the tree path between the two nodes. *)

(** {2 The closest join (Def. 2)}

    Over arrays of Dewey numbers in document order, e.g. the instances of
    one type. *)

val closest_level : t array -> t array -> int
(** The maximal common prefix length over every pair [(x, y)] with [x] in
    the first array and [y] in the second — the level at which the two
    node sets are closest; [0] when either is empty.  One merge pass:
    the maximum is reached at a pair adjacent in the merged order. *)

val runs : level:int -> t array -> (int * int) array
(** The maximal runs [[start, stop)] of consecutive entries sharing their
    first [level] components; an entry shorter than [level] is a run of its
    own.  The runs cover the array in order. *)

val compare_prefix : int -> t -> t -> int
(** [compare_prefix l a b] compares the first [l] components of [a] and
    [b] lexicographically.  Requires both to have at least [l]. *)

val bisect_run : level:int -> t array -> (int * int) array -> t -> int
(** [bisect_run ~level ds runs d], for [runs = runs ~level ds], is the
    first run whose [level]-prefix is not below [d]'s ([Array.length runs]
    when none is), by bisection.  Requires [d] and every entry of [ds] to
    have at least [level] components. *)

val seek_run : level:int -> t array -> (int * int) array -> t -> int -> int
(** [seek_run ~level ds runs d lo] is {!bisect_run}'s answer when it is
    at or after [lo], found by galloping forward from [lo]: over
    document-ordered [d]s, each search starting from the previous answer
    costs the logarithm of its step, not of the table. *)

val to_string : t -> string
(** E.g. ["1.2.1"]. *)

val of_string : string -> t
(** Inverse of [to_string]; raises [Invalid_argument] on malformed input. *)

val pp : Format.formatter -> t -> unit
