(** Materialized transformations with update mapping.

    Sec. VIII of the paper notes that the cost of physically transforming
    data "can be mitigated ... by materializing the transformation and
    mapping XUpdate operations to updates of the transformation".  This
    module implements that architecture: a view holds the shredded source,
    the compiled guard, and the rendered output; updates to the source are
    mapped onto the view at the cheapest level that preserves correctness:

    - {b value updates} write the selected nodes' values in one
      {!Store.Shredded.update_values} batch and re-render from the updated
      store — no parsing, shredding, copying of the store, or shape
      recompilation (the shape is value-independent);
    - {b structural updates} (insert/delete/rename) can change the source's
      adorned shape, so they re-shred and recompile; [full_refreshes] counts
      them so tests and benches can observe the difference.

    Updates select source nodes with simple slash paths: [/data/book/title]
    optionally with 1-based positions, [/data/book[2]/title]. *)

type t

type update =
  | Replace_value of { select : string; value : string }
      (** set the direct text of every selected element *)
  | Insert_child of { select : string; child : Xml.Tree.t }
      (** append a child to every selected element *)
  | Delete of { select : string }  (** remove the selected elements *)
  | Rename of { select : string; name : string }
      (** change the selected elements' tag; a [name] beginning with ["@"]
          raises [Invalid_argument] *)

exception Bad_select of string
(** The select path is malformed or matches nothing. *)

val create : ?enforce:bool -> Xml.Doc.t -> guard:string -> t
(** Shred, compile, render, cache.
    @raise Xmorph.Interp.Error / Xmorph.Loss.Rejected as {!Xmorph.Interp.compile}. *)

val output : t -> Xml.Tree.t
(** The materialized transformation result. *)

val source : t -> Xml.Tree.t
(** The current source document. *)

val query : t -> string -> Xquery.Value.t
(** Run an XQuery-lite query against the materialized output. *)

val apply : t -> update -> t
(** Map an update onto the view.  @raise Bad_select for bad paths. *)

val store : t -> Store.Shredded.t
(** The shredded source the output is rendered from. *)

val full_refreshes : t -> int
(** How many applied updates required the slow path (re-shred + recompile). *)
