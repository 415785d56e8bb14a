(** The shredded document store (Fig. 8 of the paper).

    Shredding takes an indexed document and lays it out in the three tables
    the XMorph interpreter reads:

    - {b Nodes}: node id → record (Dewey number, kind, name, type, parent,
      text value);
    - {b TypeToSequence}: type id → document-ordered sequence of node ids;
    - {b AdornedShapes}: the document's adorned shape (tiny; kept decoded).

    In memory the Nodes table is columns: the parent, type and Dewey
    columns of the {!Xml.Doc.t} it was shredded from (shared, not copied),
    every node's value, and every record's encoded size.  The encoded
    records exist only in the file format: {!save} writes them back to back
    in one blob, varint-encoded with {!Codec}, and {!load} decodes each one
    once into the columns.

    The original implementation used BerkeleyDB JE; the access paths are the
    same here.  Every node-record and sequence access is charged to the
    store's {!Io_stats} at the size the record or row has in the file, so
    the evaluation observes the I/O-driven cost the paper reports.
    Re-reading a node that the renderer duplicates costs I/O again, exactly
    like a page read.  The reads the renderer makes take an optional
    [?ctx], the request context its operation resolved once, and charge it
    too ({!Io_stats.charge_read}).

    Alongside the Nodes table the store keeps a {e columnar Dewey sidecar}:
    per-type arrays of Dewey numbers aligned with the TypeToSequence rows.
    The closest join only needs Dewey numbers, so the join side of the
    renderer reads {!dewey_column} (charged at the column's serialized
    size — a fraction of the full records) and reads values only at emit
    time.  The sidecar is persisted in the store file.

    Value updates ({!update_values}) leave the columns alone: new values
    live in an overlay until {!save} writes them out.

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

val shred : Xml.Doc.t -> t
(** Build the tables from an indexed document. *)

val stats : t -> Io_stats.t
(** The store's I/O accounting; shared with whoever reads from the store. *)

val guide : t -> Xml.Dataguide.t
(** The AdornedShapes table.  Reading it is free: the paper notes shapes are
    "typically tiny relative to the size of the data". *)

val types : t -> Xml.Type_table.t

val node : t -> int -> node
(** One node's record, gathered from the columns, charging the record's
    encoded size as a read to the store alone: no request context. *)

val value : ?ctx:Xmobs.Ctx.t -> t -> int -> string
(** [(node t i).value] alone.  Charged exactly as {!node} is, at the
    record's full encoded size. *)

val value_slice :
  ?ctx:Xmobs.Ctx.t -> t -> int -> ('a -> string -> int -> int -> unit) -> 'a -> unit
(** [value_slice t i f x] is [f x s pos len], where [s] from [pos] for
    [len] bytes holds {!value}[ t i] — a slice of the packed values, so
    nothing is copied.  Charged exactly as {!value} is. *)

val sequence : ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> int array
(** The TypeToSequence row for a type (document order), charging its
    serialized size as a read.  Empty for unknown types. *)

val dewey_column : ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> Xmutil.Dewey.t array
(** The columnar Dewey sidecar for a type: Dewey numbers aligned with
    {!sequence}, charged at the column's serialized size — the decode-free
    access path of the closest join.  Empty for unknown types. *)

val grouped_sequence :
  ?ctx:Xmobs.Ctx.t -> t -> Xml.Type_table.id -> level:int -> (int * int) array
(** The GroupedSequence table of Fig. 8: the TypeToSequence row for a type,
    grouped into runs [start, stop)] of nodes sharing a Dewey prefix of
    length [level] (i.e. the same ancestor at that level), by
    {!Xmutil.Dewey.runs}.  Built lazily from the type's Dewey column
    (charged as a read of it) and cached per (type, level).  The closest
    join locates a parent's run by a search over these groups
    ({!Xmutil.Dewey.seek_run}) instead of scanning nodes. *)

val join_level : t -> Xml.Type_table.id -> Xml.Type_table.id -> int
(** The closest-join level of two types (Def. 2): the maximal common Dewey
    prefix length over all pairs of their instances, [0] when either has
    none, so their data-level typeDistance is
    [depth a + depth b - 2 * join_level t a b].  When one type is an
    ancestor-or-self of the other and the descendant has instances, it is
    the ancestor's depth; otherwise {!Xmutil.Dewey.closest_level} over
    the two Dewey columns.  Cached per unordered type pair and charged
    nothing: the renderer reads both columns itself before it joins. *)

val node_count : t -> int

val data_bytes : t -> int
(** Size of the Nodes blob {!save} would write, every value update
    included — the store's idea of "document size".  O(1): updates keep a
    running size. *)

val generation : t -> int
(** The identity of this store {e value}, unique across every store built
    in the process (by {!shred}, {!load}, or {!update_values}).  Result
    caches key rendered bodies on it: an update produces a store with a
    fresh generation, so entries for the old value die by key mismatch
    with no invalidation scan. *)

val update_values : t -> (int * string) list -> t
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
    not participate in the shape, so the adorned shape, sequences, Dewey
    columns, grouped runs and join levels are shared unchanged: runs and
    levels computed through either store serve both.

    One call mints one {!generation}.  The returned store shares [t]'s I/O
    accounting, and each rewritten record is charged as a write at its
    encoded size, to the calling thread's {!Xmobs.Ctx} too (looked up
    once per call); the call ends with {!Io_stats.publish}.
    @raise Invalid_argument, with no effect, if any id is out of range. *)

val update_value : t -> int -> string -> t
(** [update_value t id v] is [update_values t [ (id, v) ]]. *)

val save : t -> string -> unit
(** Write the store to a file (format 2, with the columnar Dewey sidecar),
    encoding the Nodes blob from the columns with the current values: the
    bytes are those of a store shredded with those values. *)

val load : string -> t
(** Read a store back, decoding every record once into the columns.
    @raise Codec.Corrupt on malformed files, including files of the
    retired format 1, and on any record that is not what {!save} writes:
    one that does not start where the previous record ends (or, for the
    last, end where the blob ends), whose kind or name is not its type's,
    or whose type or parent is out of range; and on TypeToSequence rows
    or Dewey columns that disagree with the records. *)

val is_store : string -> bool
(** Whether the file starts with a store's magic (any format version): it
    is meant for {!load}, not for the XML parser.
    @raise Sys_error if the file cannot be opened. *)
