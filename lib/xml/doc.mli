(** Indexed XML documents.

    [Doc.of_tree] turns a parsed {!Tree.t} into the vertex set of the paper's
    data model (Def. 1): one node per element or attribute, each with a
    path type, its parent, its rank among its parent's children, its
    children, and its direct text content ([value] in the paper).  Text is
    not a vertex; it is folded into its parent's [value].

    Nodes are stored in document (preorder) order and node ids coincide with
    preorder ranks, so the per-type sequences returned by {!nodes_of_type}
    are sorted in document order — the property the closest join relies
    on.  A node's Dewey number (Sec. VII) is not stored: it is the ranks
    of the node's ancestors-or-self, derived on demand by {!dewey}.  The
    join itself, and with it the data-level typeDistance of Def. 2, runs on
    ids and the parent column ({!Xmutil.Closest}) in the shredded store
    ([Store.Shredded.join_level]); a document is only its node table.

    The document is a node table: one column per field, indexed by node id,
    with children in compressed-sparse-row form.  Hot loops read the columns
    through {!parent}, {!type_of}, {!rank}, {!value}, {!child_count} and
    {!child}; {!node} builds a record on demand.

    Indexing is one preorder walk that writes each node's row, after a
    pass that counts the nodes so that every column is allocated once at
    its exact size.  A node's type is its parent type's child of that name
    ({!Type_table.find_child}: a scan comparing names physically first,
    as the parser shares a name within a parse, with a hash table only
    for a type of many child types).  An element's value and its element
    children come from one walk of its child list.  The CSR children are
    then counted out of the parent column, and the per-type sequences out
    of the type column. *)

type kind = Element | Attribute

type node = {
  id : int;
  dewey : Xmutil.Dewey.t;  (** derived from the parent and rank columns *)
  kind : kind;
  name : string;  (** element or attribute name, without ["@"] *)
  type_id : Type_table.id;
  parent : int;  (** node id; [-1] for the root *)
  children : int array;  (** node ids in document order (attributes first) *)
  value : string;  (** direct text content *)
}

type t

val of_tree : ?ctx:Xmobs.Ctx.t -> Tree.t -> t
(** Index a document, in an [xml.index] region of [ctx].
    @raise Invalid_argument if an element's name begins with ["@"], the
    attribute marker of path types. *)

val of_forest : ?ctx:Xmobs.Ctx.t -> Tree.t list -> t
(** Index a {e collection} of documents (the paper's data model is an "XML
    data collection D").  Document [i] is rooted at Dewey number [i+1], so
    nodes of different documents share no Dewey prefix: no path connects
    them, and the closest relation never crosses documents.
    @raise Invalid_argument as {!of_tree}. *)

val of_string : ?ctx:Xmobs.Ctx.t -> string -> t
(** Parse then index.  @raise Parser.Error on malformed input. *)

val types : t -> Type_table.t
val node_count : t -> int

val node : t -> int -> node
(** The node's fields gathered into a fresh record (its [children] array is
    copied out of the table). *)

(** Columns, by node id. *)

val parent : t -> int -> int
val type_of : t -> int -> Type_table.id
val rank : t -> int -> int
(** 1-based rank among the parent's children, attributes first; a root's
    is its document's 1-based index. *)

val dewey : t -> int -> Xmutil.Dewey.t
(** Derived from the parent and rank columns ({!Xmutil.Dewey.of_ranks}): a
    fresh array, as long as the node is deep. *)

val value : t -> int -> string
val name : t -> int -> string
val kind : t -> int -> kind

val child_count : t -> int -> int
(** Attributes and element children. *)

val child : t -> int -> int -> int
(** [child t i k] is node [i]'s [k]th child (0-based, attributes first). *)

(** Whole columns, indexed by node id: the table's own arrays, not copies.
    A document is never written after indexing, so a consumer may keep
    them as its own columns; it must not write to them. *)

val parent_column : t -> int array
val type_column : t -> Type_table.id array
val rank_column : t -> int array
val value_column : t -> string array

val root : t -> node
(** The first document's root. *)

val roots : t -> node list
(** All document roots of the collection (a single element for [of_tree]). *)

val nodes_of_type : t -> Type_table.id -> int array
(** All node ids of the given type, in document order. The paper's
    TypeToSequence table. *)

val type_count : t -> Type_table.id -> int

val subtree : t -> int -> Tree.t
(** Reconstruct the XML subtree rooted at a node (inverse of indexing, up to
    whitespace). *)

val to_tree : t -> Tree.t
(** The first document (inverse of [of_tree]). *)

val to_trees : t -> Tree.t list
(** Every document of the collection. *)

val distance : t -> int -> int -> int
(** Tree distance between two nodes, computed from their Dewey numbers. *)
