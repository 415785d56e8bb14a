(** Static information-loss analysis (Sec. V-B).

    Before any data is touched, the guard's target shape is checked against
    the source's adorned shape.  For every ordered pair of kept types the
    path cardinality (Def. 6) in the source is compared with the path
    cardinality in the predicted adorned shape (Def. 7 — each target edge
    [(t, s)] is adorned with the source path cardinality from [t] to [s]).
    The comparison for a pair (a, b) depends only on [b] and the depths of
    the two common ancestors, in the target and in the source, so it is
    made once per such cell rather than once per pair; the members of a
    cell, which name the violations, are listed only when it violates.

    - Theorem 1: if no minimum rises from zero to non-zero the
      transformation is {e inclusive} (loses no closest edges);
    - Theorem 2: if no maximum increases it is {e non-additive}
      (manufactures no closest edges).

    The resulting classification uses the paper's type-system vocabulary:
    strongly-typed (both hold), narrowing (only Theorem 2 holds), widening
    (only Theorem 1 holds), weakly-typed (neither).  Types mentioned in the
    guard but absent from the source raise a type-mismatch error during
    {!Semantics.eval}, earlier than this analysis. *)

val predicted_card : Xml.Dataguide.t -> Tshape.node -> Xmutil.Card.t
(** Def. 7: the predicted cardinality of the target edge ending at this
    node — the source path cardinality from the node's nearest sourced
    ancestor to the node.  [1..1] for NEW/filled nodes and for roots. *)

val target_path_card :
  Xml.Dataguide.t -> Tshape.node -> Tshape.node -> Xmutil.Card.t
(** Path cardinality between two nodes of the target shape, computed over
    predicted edge cardinalities.  [0..0] when the nodes live in different
    trees of the target forest. *)

val analyze :
  ?warnings:string list -> Xml.Dataguide.t -> Tshape.t -> Report.loss_report
(** Run the analysis over every ordered pair of kept types and classify.
    Violations are ordered by the first node of the pair, then the second,
    in preorder of the target shape, [Min_raised] before [Max_increased];
    [warnings] come first among the report's warnings.  The work grows
    with the cells, at most L (D + 1) for a node at target depth L whose
    type has depth D, and with the violations listed, rather than with the
    square of the number of kept types. *)

val admissible : Ast.cast option -> Report.classification -> bool
(** Which classifications a cast mode lets through: by default only
    strongly-typed guards run; CAST-NARROWING also admits narrowing,
    CAST-WIDENING also admits widening, CAST admits everything. *)

exception Rejected of Report.loss_report
(** Raised by {!check} when the classification is not admissible. *)

val check : ?cast:Ast.cast option -> Xml.Dataguide.t -> Tshape.t -> Report.loss_report
(** [analyze] then enforce [admissible]; returns the report on success.
    @raise Rejected when the guard must not run. *)
