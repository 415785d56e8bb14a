(** Architecture 3 (Sec. VIII): logically transform the data in situ.

    The first two architectures physically produce the transformed document
    before any query runs.  This module instead runs XQuery-lite queries
    against the {e virtual} transformed document: each navigation step
    performs one closest join for one instance ({!Xmorph.Render.Nav}), on
    the edges its node test names, and a subtree is physically
    materialized only when the query returns it.  A
    query that touches a fraction of the data pays for that fraction — the
    paper's motivation for making this architecture "the focus of our
    near-term development".

    It holds no query semantics of its own: it is a navigation module
    ({!Xquery.Eval.NAV}) over the virtual document, given to the same
    {!Xquery.Eval.Make} the physical evaluator uses.  Results are ordinary
    {!Xquery.Value} sequences, so guarded queries produce identical answers
    whichever architecture evaluates them (the test suite checks this
    equivalence). *)

type t
(** A compiled guard with its navigation ({!Xmorph.Render.Nav.t}), whose
    caches fill as queries run: use a [t] from one thread at a time. *)

val of_compiled : Store.Shredded.t -> Xmorph.Interp.t -> t
(** Wrap an already-compiled guard. *)

val create : ?enforce:bool -> Store.Shredded.t -> guard:string -> t
(** Compile the guard against the store's shape; nothing is transformed.
    @raise Xmorph.Interp.Error / Xmorph.Loss.Rejected as usual. *)

val query : t -> string -> Xquery.Value.t
(** Evaluate a query against the virtual transformed document.
    @raise Xquery.Qparse.Error on syntax errors, {!Xquery.Eval.Error} on
    runtime errors. *)

val query_to_xml : t -> string -> Xml.Tree.t list
(** [query] materialized as XML content. *)
