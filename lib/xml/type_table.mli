(** Interned path types.

    The paper's default typing assigns each vertex the concatenation of
    element names on the path from the document root (Sec. IV): the type of a
    [<title>] under [<book>] under [<data>] is [data.book.title].  Types form
    a tree mirroring the DataGuide.  This module interns those paths as dense
    integer ids so that documents, shapes, and guards can talk about types
    cheaply.

    Attribute components are stored as ["@name"], which keeps an attribute
    type distinct from an identically named child element type. *)

type t

type id = int
(** Dense ids: [0 .. count t - 1], allocated in first-visit order. *)

val create : unit -> t

val intern : t -> parent:id option -> string -> id
(** [intern t ~parent comp] returns the id for the type extending [parent]
    with path component [comp], creating it on first use.  [~parent:None]
    interns a root type. *)

val find : t -> parent:id option -> string -> id option
(** Like {!intern} but without creating. *)

(** {2 Child types by name}

    The indexer's entry points: a type's element children and its
    attribute children are found by their name without the ["@"], with
    [parent] [-1] for a root type.  A type's children of one kind are a
    chain in first-interned order, scanned comparing names physically
    first and by content second; past 16 of them a hash table holds the
    chain, so lookups stay constant-time on a type with thousands of
    child types. *)

val find_child : t -> parent:int -> attr:bool -> string -> id
(** The child type of [parent] named [name] of the given kind, or [-1]. *)

val add_child : t -> parent:int -> attr:bool -> string -> id
(** Intern a child type that {!find_child} does not find (its component
    is ["@" ^ name] when [attr]).
    @raise Invalid_argument if [parent] is neither [-1] nor a type. *)

val count : t -> int

val component : t -> id -> string
(** Last path component (["@name"] for attributes). *)

val label : t -> id -> string
(** Last path component with any leading ["@"] removed — what guard labels
    match against. *)

val is_attribute : t -> id -> bool

val parent : t -> id -> id option

val depth : t -> id -> int
(** Number of components; root types have depth 1. *)

val qname : t -> id -> string
(** Dotted full path, e.g. ["data.book.title"]. *)

val path : t -> id -> string list

val ancestor_at : t -> id -> int -> id
(** [ancestor_at t ty l] is the ancestor type at depth [l];
    requires [1 <= l <= depth t ty]. *)

val lca_depth : t -> id -> id -> int
(** Depth of the deepest common ancestor type; 0 when the root types
    differ. *)

val type_distance : t -> id -> id -> int
(** Shape-level distance between the two type paths:
    [depth a + depth b - 2 * lca_depth a b].  This is a lower bound on the
    paper's data-level [typeDistance]; the closest join refines it against
    actual data (see {!Xmorph.Render}). *)

val children : t -> id -> id list
(** Child types in first-interned order. *)

val iter : t -> (id -> unit) -> unit
