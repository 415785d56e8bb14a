(** Adorned shapes (DataGuides), Def. 3 of the paper.

    The shape of a document is the tree of its path types; each edge from a
    parent type [t] to a child type [u] is adorned with a cardinality range
    [n..m]: every instance node of [t] has between [n] and [m] children of
    type [u].  Leaf types conceptually carry an extra edge [(t, o, 0..0)];
    here that is implicit in [children] being empty.

    The shape is the sole input of the static information-loss analysis
    (Sec. V-B): path cardinalities (Def. 6) computed here feed the predicted
    adorned shape (Def. 7) and Theorems 1–2.

    {!of_doc} reads each edge's cardinality off the run lengths of the
    child type's document-ordered sequence ({!Doc.nodes_of_type}) through
    the parent column: the children one parent instance has of a type are
    one run, so [m] is the longest run, and [n] the shortest, or 0 when
    there are fewer runs than parent instances.  It visits each node once,
    not each node's children per child type. *)

type t

val of_doc : Doc.t -> t

val make :
  types:Type_table.t ->
  roots:Type_table.id list ->
  cards:Xmutil.Card.t array ->
  counts:int array ->
  t
(** Rebuild a shape from its parts (used when loading a saved store); the
    arrays are indexed by type id. *)

val types : t -> Type_table.t

val uid : t -> int
(** Identity of this shape value, unique per constructed shape in the
    process.  Compiled plans are valid exactly as long as the shape is
    the same value (the paper's data-independence claim: a plan depends
    only on the shape, not the data), so plan caches key on this. *)

val root : t -> Type_table.id
(** The first root type (collections can have several). *)

val roots : t -> Type_table.id list
(** All root types of the shape forest. *)

val all_types : t -> Type_table.id list
(** Every type, in interned (first-visit document) order. *)

val children : t -> Type_table.id -> Type_table.id list

val card : t -> Type_table.id -> Xmutil.Card.t
(** Adornment of the edge from [parent ty] to [ty]; the root's is [1..1]. *)

val instance_count : t -> Type_table.id -> int
(** Number of instance nodes of the type in the source document. *)

val match_label : t -> string -> Type_table.id list
(** The types a guard label names, in interned order ({!Label.resolve}):
    ["author"] names every author type, ["book.author"] those under book. *)

val path_card : t -> Type_table.id -> Type_table.id -> Xmutil.Card.t
(** [path_card s t u] is Def. 6: the cardinality of the path from the least
    common ancestor type of [t] and [u] down to [u] — the predicted number of
    [u]-nodes closest to each [t]-node.  [path_card s t t] is [1..1]. *)

val type_distance : t -> Type_table.id -> Type_table.id -> int
(** Shape-level distance between two type paths. *)

val pp : Format.formatter -> t -> unit
(** Render the shape as an indented tree with adornments, à la Fig. 5. *)

val to_string : t -> string
