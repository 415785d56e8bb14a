(** Parsed XML trees.

    This is the surface representation produced by {!Parser} and consumed by
    {!Doc.of_tree}: a plain algebraic tree with elements, attributes, and
    text.  Comments and processing instructions are discarded at parse time;
    they play no role in the paper's data model (one vertex per element or
    attribute). *)

type t =
  | Element of { name : string; attrs : (string * string) list; children : t list }
  | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
(** Convenience constructor. *)

val text : string -> t

val name : t -> string
(** Element name; [""] for text nodes. *)

val children : t -> t list

val text_content : t -> string
(** Concatenation of all text directly under this node (not recursive). *)

val deep_text : t -> string
(** Concatenation of all text in the whole subtree, document order. *)

val count_elements : t -> int
(** Number of element nodes in the subtree (attributes excluded). *)

val count_nodes : t -> int
(** Number of element and attribute nodes in the subtree. *)

val equal : t -> t -> bool
(** Structural equality with attribute lists compared order-insensitively
    and ignoring whitespace-only text nodes.  Suitable for tests that compare
    a rendered result against an expected document. *)

val equal_unordered : t -> t -> bool
(** Like {!equal} but sibling order is also ignored (children compared as
    multisets).  XMorph shapes are unordered (Sec. III), so a rendered
    transformation matches its source only up to sibling order. *)
