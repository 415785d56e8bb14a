(** Rendering a transformed shape (Sec. VII, Fig. 7).

    The target shape is walked top-down; at every shape edge a {e closest
    join} pairs the parent's instances with the child type's instances.  The
    join exploits Dewey numbers: two nodes are closest exactly when their
    common Dewey prefix has the maximal length achieved by any pair of their
    types (Def. 2), so one merge pass over the two document-ordered
    TypeToSequence rows computes that length, and a second two-pointer pass
    pairs the nodes — [O(n)] per edge, output in document order, exactly the
    sort-merge pipelining the paper describes.

    The "read" cost is linear in the source; the "write" cost can be
    quadratic because a source node closest to several parents is rendered
    under each of them (the duplication the paper calls out).

    All reads are charged to the store's {!Store.Io_stats}; [to_buffer] also
    charges the serialized output as writes.

    Rendering conventions (DESIGN.md): a node with restrict children is
    emitted only when every restrict pattern has at least one closest,
    recursively satisfying instance; a NEW node is emitted once per instance
    of its anchor (its parent's instances, or its first sourced descendant's
    when it is a root); an attribute-sourced child is emitted as an XML
    attribute when a parent instance has exactly one closest instance, and as
    child elements otherwise. *)

type stats = {
  elements : int;  (** element + attribute count of the output *)
  bytes : int;  (** serialized size (only meaningful after [to_buffer]) *)
}

val to_trees : Store.Shredded.t -> Tshape.t -> Xml.Tree.t list
(** Render each root of the target shape; a root type with [k] instances in
    the source contributes [k] trees. *)

val to_tree : ?wrapper:string -> Store.Shredded.t -> Tshape.t -> Xml.Tree.t
(** Like {!to_trees} but guarantees a single root: if the forest has exactly
    one tree it is returned as-is, otherwise the trees are wrapped in a
    [wrapper] element (default ["result"]). *)

val to_buffer : Store.Shredded.t -> Tshape.t -> Buffer.t -> stats
(** Render and serialize, charging writes to the store's stats. *)

val stream : Store.Shredded.t -> Tshape.t -> (string -> unit) -> stats
(** Stream the serialized output to a sink in document order without ever
    materializing a tree — the paper's pipelined mode: "a transformation can
    immediately produce output, and stream the output node by node" (Sec.
    VII).  Only the per-edge join maps are held in memory; output fragments
    go straight to the sink.  Writes are charged per fragment. *)

type edge_explanation = {
  parent : string;  (** rendered parent name (qualified source type) *)
  child : string;
  type_distance : int;  (** data-level typeDistance (Def. 2) *)
  join_level : int;  (** shared-ancestor level the closest join runs at *)
  parent_instances : int;
  child_instances : int;
  pairs : int;  (** closest pairs the edge will produce *)
  orphans : int;  (** child instances with no closest parent — the vertices
                      Theorem 1 warns can be discarded *)
  predicted : Xmutil.Card.t;
      (** statically predicted total pairs: the edge's path cardinality
          (Def. 6) scaled by the parent instance count.  Compare with
          [pairs] ([Xmutil.Card.qerror]) to judge estimate accuracy. *)
}

val explain : Store.Shredded.t -> Tshape.t -> edge_explanation list
(** One entry per sourced edge of the target shape, in shape order: how each
    closest join will behave on this data.  The paper's Sec. VII reasoning
    (type distances, LCA levels, the CLOSE operator) made inspectable; the
    CLI surfaces it as [xmorph explain]. *)

val pp_explanation : Format.formatter -> edge_explanation list -> unit

val join_level : Store.Shredded.t -> Xml.Type_table.id -> Xml.Type_table.id -> int
(** Exposed for tests: the data-level closest-join level for a type pair —
    the maximal common Dewey prefix length over all instance pairs. *)

val closest_pairs :
  Store.Shredded.t -> Xml.Type_table.id -> Xml.Type_table.id -> (int * int) list
(** Exposed for tests: the full closest relation between two types, as pairs
    of node ids (the CLOSE operator of Sec. VII). *)

(** Lazy navigation over the {e virtual} transformed document — the engine
    room of architecture 3 (Sec. VIII: "re-engineer an evaluation engine ...
    to logically transform the data in situ").  Nothing is transformed up
    front; each navigation step runs one closest join for one instance, so a
    query that touches a fraction of the data only pays for that fraction.
    {!Guarded.Logical} instantiates [Xquery.Eval.Make] on top. *)
module Nav : sig
  type t

  val create : Store.Shredded.t -> Tshape.t -> t

  val roots : t -> (Tshape.node * int array) list
  (** Target roots with their instance ids (restrict/value filters applied).
      A purely NEW root has the single pseudo-instance [-1]. *)

  val children : t -> Tshape.node -> int -> (Tshape.node * int array) list
  (** The child target nodes of an instance with their closest instances, in
      shape order; computed on demand, one join per edge. *)

  val value : t -> Tshape.node -> int -> string
  (** The instance's direct text ([""] for NEW pseudo-instances). *)

  val attributes : t -> Tshape.node -> int -> (string * string) list
  (** The children that would render as XML attributes, with values. *)

  val element_children : t -> Tshape.node -> int -> (Tshape.node * int array) list
  (** {!children} minus {!attributes}. *)

  val materialize : t -> Tshape.node -> int -> Xml.Tree.t
  (** Physically render just this instance's subtree. *)

  val deep_text : t -> Tshape.node -> int -> string
  (** The XPath string value of the virtual subtree. *)
end

type instance = { dewey : Xmutil.Dewey.t; source : int }
(** One element of the {e output} document: its Dewey number in the output
    tree and the source node it draws from ([-1] for NEW elements). *)

val instances :
  Store.Shredded.t -> Tshape.t -> (Tshape.node * instance array) list
(** The output document as a graph, without materializing any XML: for every
    target node, its rendered instances in output document order.  Each
    target node is a type of the output, and every instance of it sits at
    that node's depth, so the output's closest relation can be computed from
    these arrays alone — which is what {!Quantify} does to measure actual
    information loss. *)
