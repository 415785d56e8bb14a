(** Guard inference — the paper's second future-work problem (Sec. X):
    "whether a guard can be automatically generated from a query".

    The inference walks the query and records which shape it navigates: each
    [for]/[let] binding and each path step contributes a parent/child pair of
    labels, predicates contribute children of the step they filter, and
    variables propagate their binding's position.  The result is the
    smallest MORPH whose shape satisfies every path in the query, so

    {v for $a in /data/author return $a/book/title v}

    infers [MORPH data [ author [ book [ title ] ] ]].  Pairing the query
    with its inferred guard makes it shape-polymorphic with no user-written
    guard at all.

    Wildcard ([*]) steps become the guard's [*] (include source children);
    [text()] steps and function calls contribute nothing shape-wise. *)

val infer : Xquery.Qast.expr -> Xmorph.Ast.pattern list
(** The inferred shape forest. *)

val guard_of_query : ?ctx:Xmobs.Ctx.t -> string -> string
(** Parse a query and render its inferred guard as XMorph text, in a
    [guard.infer] region of [ctx].
    @raise Xquery.Qparse.Error on malformed queries.
    @raise Failure if the query never touches the document (no shape to
    infer). *)

val run_inferred :
  ?ctx:Xmobs.Ctx.t -> ?enforce:bool -> ?cast:bool -> Xml.Doc.t -> string ->
  Guarded_query.outcome
(** Infer the guard, then run the guarded query (see {!Guarded_query.run}).
    Because an inferred guard only reflects what the query navigates — not a
    shape the user vouched for — it is wrapped in a [CAST] by default
    ([?cast:true]); the information-loss report is still computed and
    available in the outcome.  Pass [~cast:false] to enforce strictly. *)
