(** Rendering a query guard as an XQuery view — architecture 2 of Sec. VIII.

    The paper's second architecture evaluates guards by rewriting them into
    XQuery: "Rendering to XQuery often creates a long, complex XQuery
    program since ... the source values must be teased apart and
    reconstructed to the target shape ... piece-by-piece."  This module
    performs that rewriting: a compiled guard becomes an XQuery-lite program
    that, evaluated against the source document, produces the transformed
    XML.

    The generated program makes the closest join explicit the only way plain
    XQuery can: it iterates instances of the {e least common ancestor} type
    of each target edge and correlates parent and child within it, which
    finds the closest pairs (Def. 2) when the dataguide shows every instance
    of that ancestor holds one of the two types.  Names and the
    attribute-or-element choice are the render's ({!Xmorph.Render.handle}),
    so the view answers with the render's bytes or raises {!Unsupported}:
    for [NEW]/[TYPE-FILL] nodes, [CLONE]s, [ORDER-BY], [RESTRICT] patterns
    other than a plain descendant type, and an attribute other than a
    mandatory one of its parent's type, kept whole — the paper's
    architecture 1 (physical transformation) handles those. *)

exception Unsupported of string

val generate : Xml.Dataguide.t -> Xmorph.Tshape.t -> string
(** The XQuery-lite text of the view.  @raise Unsupported as described. *)

val generate_guard : ?enforce:bool -> Xml.Dataguide.t -> string -> string
(** Compile a guard against a shape, then {!generate}. *)

val eval : Xml.Tree.t -> string -> Xml.Tree.t
(** Evaluate a generated view against the source document with
    {!Xquery.Eval}, and wrap the resulting trees as the render wraps a
    forest ({!Xmorph.Render.wrap}). *)

val run_view : Xml.Doc.t -> string -> Xml.Tree.t
(** Convenience: compile the guard against the document, generate the view,
    and {!eval} it. *)
