(** The shredded document store (Fig. 8 of the paper).

    Shredding takes an indexed document and lays it out in the three tables
    the XMorph interpreter reads:

    - {b Nodes}: node id → serialized record (Dewey number, kind, name, type,
      parent, text value), stored back-to-back in one blob;
    - {b TypeToSequence}: type id → document-ordered sequence of node ids;
    - {b AdornedShapes}: the document's adorned shape (tiny; kept decoded).

    The original implementation used BerkeleyDB JE; the access paths are the
    same here.  Every node-record and sequence access is charged to the
    store's {!Io_stats} so the evaluation can observe the I/O-driven cost the
    paper reports.  Records are decoded on every access — re-reading a node
    that the renderer duplicates costs I/O again, exactly like a page read.

    Alongside the row-oriented Nodes blob the store keeps a {e columnar
    Dewey sidecar}: per-type arrays of Dewey numbers aligned with the
    TypeToSequence rows.  The closest join only needs Dewey numbers, so the
    join side of the renderer reads {!dewey_column} (charged at the column's
    serialized size — a fraction of the full records) and defers record
    decoding to emit time.  The sidecar is persisted in the store file.

    Value updates ({!update_values}) leave the blob alone: new values live
    in an overlay until {!save} writes them out.

    [save]/[load] give the store a stable on-disk format built solely on
    {!Codec}.  The grouped-run cache is guarded by a mutex, so one store may
    be read from several domains at once (the renderer's domain-parallel
    mode). *)

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
(** Fetch and decode one node record, charging its size as a read. *)

val value : t -> int -> string
(** [(node t i).value] without decoding the rest of the record: the Dewey
    number and name are skipped.  Charged exactly as {!node} is, at the
    record's full encoded size. *)

val sequence : t -> Xml.Type_table.id -> int array
(** The TypeToSequence row for a type (document order), charging its
    serialized size as a read.  Empty for unknown types. *)

val dewey_column : t -> Xml.Type_table.id -> Xmutil.Dewey.t array
(** The columnar Dewey sidecar for a type: Dewey numbers aligned with
    {!sequence}, charged at the column's serialized size — the decode-free
    access path of the closest join.  Empty for unknown types. *)

val grouped_sequence : t -> Xml.Type_table.id -> level:int -> (int * int) array
(** The GroupedSequence table of Fig. 8: the TypeToSequence row for a type,
    grouped into runs [start, stop)] of nodes sharing a Dewey prefix of
    length [level] (i.e. the same ancestor at that level).  Built lazily from
    the node records (charged as reads) and cached per (type, level).  The
    closest join locates a parent's run by binary search over these groups
    instead of scanning nodes. *)

val node_count : t -> int

val data_bytes : t -> int
(** Total size of the Nodes blob with every value update folded in — the
    store's idea of "document size".  O(1): updates keep a running size. *)

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
    of a one-bit-per-node bitmap: the record blob is not copied.  New
    values go into a persistent id → value overlay shared with [t]; {!node}
    consults it only for nodes whose bit is set, and {!save} folds it into
    the written blob.  [t] keeps reading its own values.  Values do not
    participate in the shape, so the adorned shape, sequences and Dewey
    columns are shared unchanged; only the updated nodes' own types are
    (conservatively) dropped from the grouped-run cache.

    One call mints one {!generation}.  The returned store shares [t]'s I/O
    accounting, and each rewritten record is charged as a write at its
    encoded size.
    @raise Invalid_argument, with no effect, if any id is out of range. *)

val update_value : t -> int -> string -> t
(** [update_value t id v] is [update_values t [ (id, v) ]]. *)

val save : t -> string -> unit
(** Write the store to a file (format 2, with the columnar Dewey sidecar),
    with the value overlay folded into the node blob: the bytes are those
    of a store shredded with the current values. *)

val load : string -> t
(** Read a store back.
    @raise Codec.Corrupt on malformed files, including files of the
    retired format 1. *)

val is_store : string -> bool
(** Whether the file starts with a store's magic (any format version): it
    is meant for {!load}, not for the XML parser.
    @raise Sys_error if the file cannot be opened. *)
