(** A stand-in for eXist 1.4, the native XML DBMS the paper compares against
    (Sec. IX).

    eXist stores a document in document order on disk pages; the paper notes
    that for the benchmark's dump query

    {v for $b in doc("xmark.xml")/site return <data>{$b}</data> v}

    "the timing is essentially that of reading the document from disk to a
    String object" — the {e best case} for eXist.  This module reproduces
    exactly that storage model: the serialized document kept as one
    document-ordered byte string.  [dump] charges a sequential read of the
    whole document and a write of the result.  [query] evaluates an
    arbitrary XQuery-lite query the way a navigational engine does: scan +
    in-memory navigation, charging the same sequential read.  Every charge
    goes to the request context handed to the operation ([?ctx]) too. *)

type t

val store : ?ctx:Xmobs.Ctx.t -> Xml.Tree.t -> t
(** Serialize and store a document. *)

val of_doc : Xml.Doc.t -> t

val stats : t -> Store.Io_stats.t

val size_bytes : t -> int
(** Stored (serialized) size. *)

val dump : ?ctx:Xmobs.Ctx.t -> t -> Buffer.t -> int
(** The paper's dump query: read the document, wrap it in [<data>];
    returns the number of bytes written. *)

val query : ?ctx:Xmobs.Ctx.t -> t -> string -> Xquery.Value.t
(** Evaluate an XQuery-lite query the way a navigational engine does.
    A bare [//name] query uses the structural element index (eXist indexes
    element names by default), charging reads for the matched subtrees only;
    anything else charges a sequential scan of the stored pages and
    navigates the resident document. *)

val query_to_buffer : ?ctx:Xmobs.Ctx.t -> t -> string -> Buffer.t -> int
(** [query] then serialize the result sequence, charging the write; returns
    bytes written. *)
