(** Dewey (prefix-based) node numbers.

    Every node in an indexed XML document has a Dewey number: the root is
    [1], its i-th child is [1.i], and so on (Sec. VII of the paper).  Two
    facts make Dewey numbers the engine of the closest join:

    - comparing numbers lexicographically yields document order, and
    - the length of the longest common prefix of two numbers is the level of
      the nodes' least common ancestor, so
      [distance v w = level v + level w - 2 * common_prefix_len v w].

    No node table holds them.  Ids are preorder ranks, and each node keeps
    its parent and its rank among its parent's children, so both facts have
    integer answers over those columns ({!Closest}, which runs the join).
    A Dewey number is derived from the columns ({!of_ranks}) only where one
    is printed or persisted. *)

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

val of_ranks : parent:int array -> rank:int array -> int -> t
(** [of_ranks ~parent ~rank i] is node [i]'s Dewey number in a node table
    whose ids are preorder ranks: [parent.(j)] is node [j]'s parent ([-1]
    at a root) and [rank.(j)] its 1-based rank among its parent's children
    (a root's, its document's 1-based index).  The number is the ranks of
    [i]'s ancestors-or-self, root first. *)

val to_string : t -> string
(** E.g. ["1.2.1"]. *)

val of_string : string -> t
(** Inverse of [to_string]; raises [Invalid_argument] on malformed input. *)

val pp : Format.formatter -> t -> unit
