(** Rendering a transformed shape (Sec. VII, Fig. 7).

    Rendering plans, then walks.  The plan mirrors the target shape: at
    every shape edge a {e closest join} pairs the parent's instances with
    the child type's instances.  The join runs on node ids, which are
    preorder ranks, and the store's parent column: two nodes are closest
    exactly when their least common ancestor lies at the deepest level
    any pair of their types reaches (Def. 2: the maximal common Dewey
    prefix), which the store computes once per type pair
    ({!Store.Shredded.join_level}).  A forward pass then finds each
    parent's run of closest children in the GroupedSequence table, keyed
    by ancestor ids: the parent's own ancestor at that level, a fixed
    number of parent hops up, is galloped for from the previous parent's
    answer ({!Xmutil.Closest.find}).  Each edge keeps its runs in flat
    offset arrays, not per-parent copies; an edge whose parents take
    every run whole is the grouped row itself, the store's arrays shared
    rather than copied.

    One walk over the plan then emits the output in document order — the
    pipelining the paper describes.  Per instance it reads the
    attribute-shaped children, then the instance's own value, then the
    element children in shape order.  The walk comes in two forms that
    read the same nodes in the same order, so the bytes, the {!stats}
    and the read charges agree.  {!to_buffer} and {!stream} write to an
    {!Xml.Printer.Writer}, which escapes each value in place from the
    store's packed text: that walk allocates nothing per element, and
    what a bytes render allocates is its plan and its output.
    {!to_trees} and {!to_tree} return each instance's element from the
    walk, its attribute and child lists built in order: that walk
    allocates only the tree.  A child in a closest run that several
    parents share is built once, and the same immutable subtree is handed
    to each of those parents; every later parent charges again the reads
    that built it, so the charges are the bytes walk's.  Physical identity
    ([==]) in a rendered tree is therefore coarser than XPath node
    identity: two output nodes may be one block.  Nothing compares trees
    physically, and no query can tell: the evaluator has no parent axis
    and no node identity.  {!Nav.materialize} builds the same
    elements one instance at a time, without a plan.  The plan and the
    walk run sequentially on the caller's domain.

    The "read" cost is linear in the source; the "write" cost can be
    quadratic because a source node closest to several parents is rendered
    under each of them (the duplication the paper calls out).

    All reads are charged to the store's {!Store.Io_stats}, and to the
    request context handed to the call ([?ctx]; {!Nav.charging} for a
    [Nav.t]); [to_buffer] and
    [stream] also charge the serialized output as one write.  A render
    writes no metrics registry: the execution path that ran it
    ([Xmserve.Exec]) writes the [render.*] counters from the returned
    {!stats}, and the [store.*] gauges from the store's counters.

    Rendering conventions (DESIGN.md): a node with restrict children is
    emitted only when every restrict pattern has at least one closest,
    recursively satisfying instance; a NEW node is emitted once per instance
    of its anchor (its first directly sourced child, or its first sourced
    descendant when it is a root; without one, once per parent instance); an
    attribute-sourced child of a {e sourced} parent is emitted as an XML
    attribute when a parent instance has exactly one closest instance, and as
    child elements otherwise (under a NEW parent, always as elements).  Each
    rule has one definition, a {!handle} per target node, which the plan,
    the walk, {!Nav} and the generated XQuery view share.  Labels arrive
    resolved: the compiler bound them, ORDER-BY keys included, to types. *)

(** A target node with its output rules; what it keeps of its instances
    (value filter, restricts, ORDER-BY) is read from [node]. *)
type handle = private {
  node : Tshape.node;
  name : string;  (** the output name, without an attribute's ["@"] *)
  attr : bool;  (** an attribute-typed leaf under a sourced parent *)
  join : Xml.Type_table.id option;  (** the type it renders once per instance of *)
  aty : Xml.Type_table.id;  (** the type its children join on *)
  below : handle list;  (** in shape order *)
}

val handles : Xml.Type_table.t -> Tshape.t -> handle list
(** One handle per target root, its subtree's below it. *)

val wrap : ?wrapper:string -> int -> string option
(** The element a forest of [n] output trees is written inside: [None] for
    one tree, else [wrapper] (default ["result"]). *)

type stats = {
  elements : int;  (** element + attribute count of the output *)
  bytes : int;  (** serialized size *)
}

val to_trees : Store.Shredded.t -> Tshape.t -> Xml.Tree.t list
(** Render each root of the target shape; a root type with [k] instances in
    the source contributes [k] trees.  Subtrees of a run shared by
    several parents are shared too, across trees as within one. *)

val to_tree :
  ?ctx:Xmobs.Ctx.t -> ?wrapper:string -> Store.Shredded.t -> Tshape.t -> Xml.Tree.t
(** Like {!to_trees} but guarantees a single root: if the forest has exactly
    one tree it is returned as-is, otherwise the trees are wrapped in a
    [wrapper] element (default ["result"]).  The render runs in a
    [render] region of [ctx], each closest join and the emit walk nested
    in it, and charges its store reads to [ctx] too; so does
    {!to_buffer}'s. *)

val to_buffer :
  ?ctx:Xmobs.Ctx.t -> ?wrapper:string -> ?indent:bool -> Store.Shredded.t -> Tshape.t ->
  Buffer.t -> stats
(** Render straight into the buffer, one plan walk with no tree, and
    charge the bytes written as one write to the store's stats.  The
    bytes are those of {!to_trees} printed one after another; with
    [~wrapper] those of {!to_tree} [~wrapper], and with [~indent:true]
    those of {!Xml.Printer.to_string_indented} (an indenting
    {!Xml.Printer.Writer}).  [elements] counts the wrapper when one is
    written. *)

val stream : Store.Shredded.t -> Tshape.t -> (string -> unit) -> stats
(** Stream the serialized output to a sink in document order without ever
    materializing a tree — the paper's pipelined mode: "a transformation can
    immediately produce output, and stream the output node by node" (Sec.
    VII).  The same walk as {!to_buffer}: the sink is handed the bytes
    written so far each time an element closes, so only the per-edge join
    results and one element's worth of bytes are held in memory.  The
    bytes are charged as one write, once the walk is done. *)

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

val explain : ?ctx:Xmobs.Ctx.t -> Store.Shredded.t -> Tshape.t -> edge_explanation list
(** One entry per sourced edge of the target shape, in shape order: how each
    closest join will behave on this data.  The paper's Sec. VII reasoning
    (type distances, LCA levels, the CLOSE operator) made inspectable; the
    CLI surfaces it as [xmorph explain].  Each edge is a {!join_name}
    region of [ctx], which its store reads are charged to. *)

val pp_explanation : Format.formatter -> edge_explanation list -> unit

val join_name : Xml.Type_table.t -> Xml.Type_table.id -> Xml.Type_table.id -> string
(** [closest(parent->child)] by qualified type names: the region a render
    records for that edge's join, and the name {!Interp.predicted_joins}
    gives its prediction, so the warehouse can match the two. *)

val predicted_edges :
  Xml.Dataguide.t ->
  Tshape.t ->
  (Xml.Type_table.id * Xml.Type_table.id * Xmutil.Card.t * int) list
(** Per sourced edge, in {!explain}'s order, from the dataguide alone: the
    parent and child types, the path cardinality (Def. 6) and the parent
    type's instance count, whose product is [predicted]. *)

val closest_pairs :
  Store.Shredded.t -> Xml.Type_table.id -> Xml.Type_table.id -> (int * int) list
(** The closest relation between two types (the CLOSE operator of Sec.
    VII) as pairs of node ids, each once, ordered by parent, then
    child. *)

(** Lazy navigation over the {e virtual} transformed document — the engine
    room of architecture 3 (Sec. VIII: "re-engineer an evaluation engine ...
    to logically transform the data in situ").  Nothing is transformed up
    front: each step is one level of the render's plan for one instance —
    one closest join per child edge, through the same output rules — so
    navigation answers what rendering answers, and a query that touches a
    fraction of the data only pays for that fraction.  {!Guarded.Logical}
    instantiates [Xquery.Eval.Make] on top. *)
module Nav : sig
  type t
  (** Not to be shared between threads: a [t] and every view {!charging}
      makes of it share unsynchronized caches (each type's row, each
      target edge resolved, the roots selected), so they are used by one
      thread at a time.  Operations run one after another may share one
      [t], and so find its edges already resolved. *)

  type nonrec handle = handle

  val create : Store.Shredded.t -> Tshape.t -> t
  (** One handle per target node, built here once.  Its store reads are
      charged to the store alone: a [t] may serve many requests. *)

  val charging : t -> Xmobs.Ctx.t option -> t
  (** A view of [t] whose store reads are also charged to the given
      request context, the one handed to the caller's operation.  It
      shares [t]'s handles, caches and roots. *)

  val ctx : t -> Xmobs.Ctx.t option
  (** The request context [t]'s reads are charged to ({!charging}). *)

  val roots : t -> (handle * int array) list
  (** Target roots with their instance ids (restrict/value filters applied,
      ORDER-BY sorted).  A purely NEW root has the single pseudo-instance
      [-1].  Selected on the first call; later calls return the same
      arrays. *)

  val wrapper : (handle * int array) list -> string option
  (** [Some "result"] when the roots make a forest of other than one tree. *)

  val children : t -> handle -> int -> (handle * int array) list
  (** The child handles of an instance with their closest instances, in
      shape order; computed on demand, one join per edge.  A target edge
      is resolved (rows read, runs grouped) on its first join in [t];
      each later join is one ancestor hop and one bisection of the edge's
      run keys. *)

  val value : t -> handle -> int -> string
  (** The instance's direct text ([""] for NEW pseudo-instances). *)

  val attributes : t -> handle -> int -> (string * string) list
  (** The children that render as XML attributes, with values; only the
      edges of attribute-typed children are joined. *)

  val element_children : t -> ?name:string -> handle -> int -> (handle * int array) list
  (** {!children} minus {!attributes}.  With [~name], only the children of
      that output name, and only their edges are joined. *)

  val materialize : t -> handle -> int -> Xml.Tree.t
  (** This instance's subtree as the physical render writes it, reading
      the values the render reads for it.  Built from the edges [t]
      resolves, each child edge joined once per instance ({!children});
      no plan is made per instance. *)

  val deep_text : t -> handle -> int -> string
  (** The XPath string value of the virtual subtree, written into one
      buffer; a node with no child handles is its own value, read once. *)
end

type instance = {
  id : int;  (** preorder rank in the output document *)
  parent : int;  (** the output parent's [id]; [-1] for an output root *)
  dewey : Xmutil.Dewey.t;  (** Dewey number in the output tree *)
  source : int;  (** the source node it draws from ([-1] for NEW elements) *)
}
(** One element of the {e output} document. *)

val instances : Store.Shredded.t -> Tshape.t -> (Tshape.node * instance array) list
(** The output document as a graph, without materializing any XML: for every
    target node, its rendered instances in output document order.  Each
    target node is a type of the output, and every instance of it sits at
    that node's depth, so the output's closest relation can be computed from
    these arrays alone, by the same id kernel as the source's
    ({!Xmutil.Closest} over the output parent column) — which is what
    {!Quantify} does to measure actual information loss. *)

val instances_with_closest :
  ?ctx:Xmobs.Ctx.t ->
  Store.Shredded.t ->
  Tshape.t ->
  (Tshape.node * instance array) list
  * (Xml.Type_table.id -> Xml.Type_table.id -> (int -> int -> unit) -> unit)
(** {!instances}, and an iterator over the closest relation of any two
    types, [t] and [u]: [f p c] for each pair, once, ordered by [p], then
    [c] (the pairs of {!closest_pairs}).  Both read through one render
    context, so each type's row and each edge's runs are read once, and
    charged once to the store and to [ctx], however many pairs are
    iterated.  The instance graph's joins are [closest(a->b)] regions of
    [ctx], as a render's are; the iterator opens none.
    {!Quantify.measure} reads through it. *)
