(** The shredded document store (Fig. 8 of the paper).

    Shredding takes an indexed document and lays it out in the three tables
    the XMorph interpreter reads:

    - {b Nodes}: node id → record (Dewey number, kind, name, type, parent,
      text value);
    - {b TypeToSequence}: type id → document-ordered sequence of node ids;
    - {b AdornedShapes}: the document's adorned shape (tiny; kept decoded).

    In memory the Nodes table is columns: the parent, type, rank and
    value columns of the {!Xml.Doc.t} it was shredded from (shared, not
    copied), and every record's encoded size.  No Dewey number
    is held: ids are preorder ranks, so a record's Dewey number is derived
    from the parent and rank columns ({!Xmutil.Dewey.of_ranks}) where it is
    read ({!node}) or written ({!save}).  The encoded records exist only in
    the file format: {!save} writes them back to back in one blob,
    varint-encoded with {!Codec}, and {!load} decodes each one once into
    the columns.

    The original implementation used BerkeleyDB JE; the access paths are the
    same here.  Every node-record and sequence access is charged to the
    store's {!Io_stats} at the size the record or row has in the file, so
    the evaluation observes the I/O-driven cost the paper reports.
    Re-reading a node that the renderer duplicates costs I/O again, exactly
    like a page read.  The reads the renderer makes take an optional
    [?ctx], the request context handed to their operation, and charge it
    too ({!Io_stats.charge_read}).

    Alongside the Nodes table the file holds a {e columnar Dewey sidecar}:
    per-type Dewey numbers aligned with the TypeToSequence rows, the
    decode-free access path of the closest join.  In memory the join runs
    on ids and the parent column ({!Xmutil.Closest}); a join-side read of
    a type is charged at its sidecar column's serialized size
    ({!charge_join_column}), a fraction of the full records, and values
    are read only at emit time.

    Value updates ({!update_values}) leave the columns alone: new values
    live in an overlay until {!save} writes them out.  Each store value
    keeps, per type, the generation of the last call that wrote a value
    of the type ({!generation_of}), so a cache can tell which writes a
    body it read could have seen.

    The structure-only join tables — the grouped runs and the closest-join
    level of each type pair — are built on first use, cached with the
    store, and shared by every store {!update_values} derives from it.
    One mutex guards both, so one store may be read from several threads
    or domains at once (the serve daemon's request threads share a
    store). *)

type node = {
  id : int;
  dewey : Xmutil.Dewey.t;
  kind : Xml.Doc.kind;
  name : string;
  type_id : Xml.Type_table.id;
  parent : int;
  value : string;
}

type t

val shred : ?ctx:Xmobs.Ctx.t -> Xml.Doc.t -> t
(** Build the tables from an indexed document, in a [store.shred]
    region of [ctx]. *)

val stats : t -> Io_stats.t
(** The store's I/O accounting; shared with whoever reads from the store. *)

val guide : t -> Xml.Dataguide.t
(** The AdornedShapes table.  Reading it is free: the paper notes shapes are
    "typically tiny relative to the size of the data". *)

val types : t -> Xml.Type_table.t

val node : t -> int -> node
(** One node's record, gathered from the columns (its Dewey number derived
    from the parent and rank columns), charging the record's encoded size
    as a read to the store alone: no request context. *)

val value : ?ctx:Xmobs.Ctx.t -> t -> int -> string
(** [(node t i).value] alone.  Charged exactly as {!node} is, at the
    record's full encoded size.  Nothing is copied: the string is the
    value column's own (for a shredded store, the document's own string;
    for a loaded one, the string {!load} decoded), or, for a node
    {!update_values} wrote, the string it was handed. *)

val sequence : ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> int array
(** The TypeToSequence row for a type (document order), charging its
    serialized size as a read.  Empty for unknown types. *)

val charge_join_column : ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> unit
(** Charge a join-side read of a type: its Dewey column as the file's
    sidecar holds it, at its serialized size.  The join itself reads the
    parent column ({!parent_column}); nothing is charged for unknown
    types. *)

val parent_column : t -> int array
(** Each node's parent ([-1] at a root), by node id: the document's own
    array, shared by every store derived from this one.  It must not be
    written. *)

val grouped_sequence :
  ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> level:int -> Xmutil.Closest.runs
(** The GroupedSequence table of Fig. 8: the TypeToSequence row for a type,
    grouped into runs of nodes sharing their ancestor at [level] (a Dewey
    prefix of that length), by {!Xmutil.Closest.runs}.  Requires [level]
    between 1 and the type's depth.  Built lazily, charged as a read of
    the type's join column ({!charge_join_column}), and cached per (type,
    level).  The closest join locates a parent's run by a search over the
    runs' keys ({!Xmutil.Closest.find}) instead of scanning nodes.  No
    runs for unknown types. *)

val join_level : t -> Xml.Type_table.id -> Xml.Type_table.id -> int
(** The closest-join level of two types (Def. 2): the level of the deepest
    least common ancestor over all pairs of their instances (their maximal
    common Dewey prefix length), [0] when either has none, so their
    data-level typeDistance is [depth a + depth b - 2 * join_level t a b].
    When one type is an ancestor-or-self of the other and the descendant
    has instances, it is the ancestor's depth; otherwise
    {!Xmutil.Closest.level} over the two sequence rows.  Cached per
    unordered type pair and charged nothing: the renderer reads both
    types' join columns itself before it joins. *)

val node_count : t -> int

val data_bytes : t -> int
(** Size of the Nodes blob {!save} would write, every value update
    included — the store's idea of "document size".  O(1): updates keep a
    running size. *)

val generation : t -> int
(** The identity of this store {e value}, unique across every store built
    in the process (by {!shred}, {!load}, or {!update_values}): what the
    query log, [POST /update] and [/stats] report.  Result caches key on
    {!generation_of} instead. *)

val generation_of : t -> Xml.Type_table.id array -> int
(** [generation_of t types] is the largest generation stamped on any of
    [types]: {!shred} and {!load} stamp every type with the generation
    they mint, and {!update_values} stamps each type it writes with the
    one it mints.  The fold starts from the generation {!shred} or
    {!load} minted, so stores of two documents never share a value, even
    for [[||]]; unknown type ids are ignored.

    Two stores share [generation_of t types] only if both descend from
    the store value that minted it, with no later write to any of
    [types], so their values of [types] are equal.  Values play no part
    in the structure, so any output that reads the structure and the
    values of [types] alone is byte-equal on both: a result cache keys
    such a body on this number, and a write to another type leaves the
    entry live. *)

val update_values : ?ctx:Xmobs.Ctx.t -> t -> (int * string) list -> t
(** [update_values t [(id, v); ...]] is a store identical to [t] except
    each node [id]'s text value is [v]; when an id appears more than once
    the last value wins.  This is the store half of mapping value updates
    onto a materialized transformation (Sec. VIII), and the one path every
    value write takes.

    The update is functional and costs O(k log n) for k nodes plus a copy
    of a one-bit-per-node bitmap: no column is copied.  New values go into
    a persistent id → (value, record size) overlay shared with [t]; reads
    consult it only for nodes whose bit is set, and {!save} writes its
    values into the records.  [t] keeps reading its own values.  Values do
    not participate in the shape, so the adorned shape, sequences, parent
    and rank columns, grouped runs and join levels are shared unchanged:
    runs and levels computed through either store serve both.

    One call mints one {!generation}, and stamps it on each type it
    writes a value of ({!generation_of}) and on no other; an empty batch
    stamps nothing.  The returned store shares [t]'s I/O
    accounting, and each rewritten record is charged as a write at its
    encoded size, to [ctx] too.
    @raise Invalid_argument, with no effect, if any id is out of range. *)

val update_value : t -> int -> string -> t
(** [update_value t id v] is [update_values t [ (id, v) ]]. *)

val save : ?ctx:Xmobs.Ctx.t -> t -> string -> unit
(** Write the store to a file (format 2, with the columnar Dewey sidecar),
    encoding the Nodes blob from the columns with the current values and
    each Dewey number derived from the parent and rank columns: the bytes
    are those of a store shredded with those values. *)

val load : ?ctx:Xmobs.Ctx.t -> string -> t
(** Read a store back, decoding every record once into the columns.
    @raise Codec.Corrupt on malformed files, including files of the
    retired format 1, and on any record that is not what {!save} writes:
    one that does not start where the previous record ends (or, for the
    last, end where the blob ends), whose kind or name is not its type's,
    whose type or parent is out of range, whose parent is not the last
    node seen one level up of its type's parent type (ids are preorder
    ranks), or whose Dewey number is not the one the parent column and
    the sibling ranks give; and on TypeToSequence rows or Dewey columns
    that disagree with the records.  A loaded store holds no Dewey
    number: it keeps the rank and parent columns. *)

val is_store : string -> bool
(** Whether the file starts with a store's magic (any format version): it
    is meant for {!load}, not for the XML parser.
    @raise Sys_error if the file cannot be opened. *)
