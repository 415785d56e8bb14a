(** Target shapes — the values of the shape semantics ξ (Sec. VI).

    A target shape is a forest of nodes.  Each node carries the {e source
    type} it draws instances from ([None] for types created by [NEW] or
    [TYPE-FILL]), an output name (changed by [TRANSLATE]), its visible
    children, and a separate list of {e restrict} children: patterns used
    only to filter instances at render time ([RESTRICT]), never rendered.

    The forest condition of Def. 3 — every type has at most one parent — is
    enforced when a guard stage finishes: a source type may back at most one
    non-clone node ({!check_forest}).  [CLONE] escapes the condition by
    marking copies.

    Shapes are mutable trees with parent links because [MUTATE] is most
    naturally a sequence of subtree moves. *)

type node = {
  uid : int;
  mutable source : Xml.Type_table.id option;
  mutable out_name : string;
  mutable clone : bool;
  mutable filled : bool;  (** created by TYPE-FILL or NEW *)
  mutable parent : node option;
  mutable children : node list;
  mutable restrict_children : node list;
  mutable value_filter : string option;
      (** keep only instances whose text value equals this literal — the
          value-based transformation extension *)
  mutable sort_key : (Xml.Type_table.id * bool) option;
      (** render instances ordered by the deep text of their closest
          instances of this key type (descending when the flag is set) —
          the sibling-ordering extension.  The compiler resolves the
          ORDER-BY label to the type. *)
  mutable origin : node option;
      (** During a MORPH stage: the node of the {e previous} stage's shape
          this node was copied from — used by [*]/[**] to pull in that node's
          children. Cleared when the stage ends. *)
}

type t = { mutable roots : node list }

exception Error of string
(** Semantic errors: unmatched labels, duplicate non-clone types, misplaced
    constructs. *)

val fresh :
  ?source:Xml.Type_table.id ->
  ?clone:bool ->
  ?filled:bool ->
  ?origin:node ->
  string ->
  node
(** A fresh parentless, childless node with the given output name. *)

val of_guide : Xml.Dataguide.t -> t
(** Lift the source shape: one node per source type, same structure, output
    names = type labels.  The identity element of the stage pipeline. *)

val copy_node : deep:bool -> node -> node
(** Copy a node (and its subtree when [deep]); copies remember the original
    in [origin]. *)

val copy : t -> t
(** Deep copy of a whole shape (used so MUTATE never aliases its input). *)

val attach : parent:node -> node -> unit
(** Append as last child, detaching from any previous parent.
    @raise Error when this would create a cycle and the parent cannot be
    promoted (see {!move_under}). *)

val detach : t -> node -> unit
(** Remove from its parent (or from the roots) — the node keeps its
    subtree. *)

val move_under : t -> parent:node -> node -> unit
(** MUTATE's rearrangement step: detach the node and attach it under
    [parent].  If [parent] currently lives inside the node's own subtree
    (e.g. [MUTATE name \[ author \]] when [name] is below [author]), the
    parent is first promoted to the node's current position. *)

val remove_promote : t -> node -> unit
(** DROP: remove the node, promoting its children into its place. *)

val iter : t -> (node -> unit) -> unit
(** Visit every visible node (not restrict children), preorder. *)

val iter_all : t -> (node -> unit) -> unit
(** Visit every node including restrict subtrees. *)

val match_label : t -> string -> node list
(** Resolve a (possibly dotted) label against the shape's visible output
    names, in preorder, by {!Xml.Label.resolve}.  Dotted labels match a
    suffix of the ancestor chain. *)

val find_source : t -> Xml.Type_table.id -> node option
(** The non-clone visible node backed by the given source type, if any. *)

val check_forest : t -> unit
(** @raise Error if two non-clone visible nodes share a source type. *)

val clear_origins : t -> unit

val depth_in : node -> int
(** 1-based depth of a node within its shape tree. *)

val root_of : node -> node

val pp : Format.formatter -> t -> unit
val to_string : t -> string
