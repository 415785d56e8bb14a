(** The XMorph interpreter (Sec. VIII, Fig. 8): the public entry point of the
    library.

    [compile] runs the data-free pipeline — parse, translate to the algebra,
    type-analyze, build the target shape, and produce the label-to-type and
    information-loss reports; it needs only the source's adorned shape, which
    is tiny compared to the data.  [render] then streams the actual
    transformation from a shredded store.

    Type enforcement: by default only strongly-typed guards may render; the
    guard's own [CAST] / [CAST-NARROWING] / [CAST-WIDENING] wrapper widens
    what is admissible (Sec. III), and [~enforce:false] disables rejection
    entirely (the report is still produced). *)

type t = {
  source : string;  (** guard text *)
  ast : Ast.t;
  algebra : Algebra.t;
  shape : Tshape.t;  (** the target shape the guard denotes *)
  labels : Report.label_report;
  loss : Report.loss_report;
  reads : Xml.Type_table.id array;
      (** the types whose values a render or an in-situ answer reads,
          ascending: the source of every target-shape node, RESTRICT
          patterns included, and every ORDER-BY key type.  Value filters
          sit on those nodes.  Everything else an output depends on is
          structure, which value updates share, so a result cache keys
          bodies on {!Store.Shredded.generation_of} over these types. *)
}

exception Error of string
(** Parse and semantic errors, rendered human-readably. *)

val compile : ?ctx:Xmobs.Ctx.t -> ?enforce:bool -> Xml.Dataguide.t -> string -> t
(** Compile in a [compile] region of [ctx], handing [ctx] on to the lex,
    parse, type analysis and loss analysis it runs.
    @raise Error on parse or semantic failure.
    @raise Loss.Rejected when enforcement rejects the classification. *)

val predicted_joins :
  Xml.Dataguide.t -> t -> (string * Xmutil.Card.t * int) list
(** The static cardinality predictions for the compiled shape's closest
    joins: per sourced parent-child edge, the render profiler's frame name
    ([closest(parent->child)]), the per-parent path cardinality (Def. 6),
    and the parent type's instance count.  The predicted total pair count
    of the edge is the cardinality scaled by the count; the warehouse
    ({!Xmobs.Statdb}) folds these against observed pairs into q-errors. *)

val render : ?ctx:Xmobs.Ctx.t -> Store.Shredded.t -> t -> Xml.Tree.t
(** Render the compiled guard against a store (single root; a forest is
    wrapped in [<result>]). *)

val render_to_buffer :
  ?ctx:Xmobs.Ctx.t -> ?indent:bool -> Store.Shredded.t -> t -> Buffer.t -> Render.stats
(** [render] without the tree: the bytes appended to the buffer are
    [Xml.Printer.to_string (render store t)], or with [~indent:true]
    [Xml.Printer.to_string_indented (render store t)], written by one walk
    ({!Render.to_buffer} with the [<result>] wrapper).  The stats' element
    count is [Xml.Tree.count_nodes] of that tree.  This is what
    [xmorph run] prints and [POST /query] serves. *)

val transform :
  ?ctx:Xmobs.Ctx.t -> ?enforce:bool -> Store.Shredded.t -> string -> Xml.Tree.t * t
(** [compile] against the store's shape, then [render]. *)

val transform_doc : ?enforce:bool -> Xml.Doc.t -> string -> Xml.Tree.t * t
(** Convenience for tests and examples: shred the document into a fresh
    store, then [transform]. *)
