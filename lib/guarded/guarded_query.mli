(** Query guards in action (Sec. I): each query has two components — an
    XMorph guard declaring the shape the query needs, and an XQuery query
    written against that shape.

    [run] evaluates the guard first.  The guard checks whether the data can
    be transformed to the declared shape without unacceptable information
    loss (per its cast mode), transforms it, and only then is the query
    evaluated — against the {e transformed} values, which is what makes
    functions like [distinct-values] behave as the query author expects.

    The same (guard, query) pair can be applied unchanged to differently
    shaped collections; that is the shape polymorphism the paper is about.

    This is architecture 1 (Sec. VIII): the whole transformed document is
    built before the query runs.  Served and one-shot queries
    ([Xmserve.Exec]) are answered in situ by {!Logical} instead, with the
    same bytes; this module is the reference the tests hold them to. *)

type t = { guard : string; query : string }

type outcome = {
  transformed : Xml.Tree.t;  (** the data as reshaped by the guard *)
  result : Xquery.Value.t;  (** the query result *)
  result_xml : Xml.Tree.t list;  (** result materialized as XML *)
  compiled : Xmorph.Interp.t;  (** shape, label report, loss report *)
}

exception Guard_rejected of Xmorph.Report.loss_report
(** The guard's information-loss classification was not admissible under its
    cast mode; the query never ran. *)

exception Query_failed of string

val protect : string -> (unit -> 'a) -> 'a
(** [protect query f] runs [f], an evaluation of [query], and turns its
    syntax and runtime errors into {!Query_failed} with the message
    [xmorph query] prints.  Both architectures answer through it. *)

val run : ?ctx:Xmobs.Ctx.t -> ?enforce:bool -> Xml.Doc.t -> t -> outcome
(** Shred, guard-transform, then query, each layer a region of [ctx].
    @raise Guard_rejected or {!Xmorph.Interp.Error} from the guard phase,
    {!Query_failed} from the query phase. *)

val run_on_store : ?ctx:Xmobs.Ctx.t -> ?enforce:bool -> Store.Shredded.t -> t -> outcome
(** Same, reusing an existing shredded store (shred once, query many). *)

val query_unguarded : Xml.Doc.t -> string -> Xquery.Value.t
(** Run a query directly against the source shape — what a plain XQuery
    engine would do; used by examples to show queries failing silently on
    unexpected shapes. *)
