(** Evaluator for the XQuery-lite subset.

    Queries run against a single context document (what [doc(...)] and a
    leading [/] denote).  The function library covers the built-ins the
    paper's examples rely on — notably [distinct-values], whose behaviour on
    the {e target} shape rather than the source is one of the paper's
    arguments for physically transforming values (Sec. II).

    The query semantics (steps, predicates, FLWOR, comparison, element
    construction and every built-in) are written once, in {!Make}, over a
    navigation signature {!NAV}.  {!eval} instantiates it over a plain
    {!Xml.Tree.t}; [Guarded.Logical] instantiates it over the virtual
    transformed document of architecture 3. *)

exception Error of string
(** Runtime errors: unbound variables, unknown functions, bad arity. *)

(** What the evaluator needs to know about a document's nodes. *)
module type NAV = sig
  type t
  (** The navigation context: one document. *)

  type node

  val document : t -> node
  (** The document node, parent of the root element ([/]). *)

  val children : t -> test:Qast.node_test -> node -> node Seq.t
  (** Children in document order: at least those [test] selects — the
      elements of a name, every element for [*], every text child for
      [text()].  A navigation may hand out other children too, which the
      evaluator drops.  A child step passes its own test; a descendant
      step asks for every element ([*]) and, for [text()], for the text
      children as well.  The evaluator pulls only what it keeps: a child
      step whose first predicate is a static positional bound ([[2]],
      [position() <= $k], ...) forces no child past the bound's run, so
      an instance that computes children on demand pays for those alone. *)

  val text : t -> node -> string option
  (** The content of a text node; [None] for an element. *)

  val name : t -> node -> string
  (** Element name; [""] for the document node and text nodes. *)

  val attributes : t -> node -> (string * string) list
  val string_value : t -> node -> string

  val of_tree : Xml.Tree.t -> node
  (** A node built by an element constructor. *)

  val materialize : t -> node -> Xml.Tree.t
end

module Make (N : NAV) : sig
  val eval : N.t -> Qast.expr -> N.node Value.item_of list
  (** [eval doc e] evaluates [e] in document [doc].  It resolves the
      calling thread's context once; while that context keeps frames,
      each expression node is an operator region ({!Xmobs.Ctx.enter}). *)

  val materialize : N.t -> N.node Value.item_of list -> Value.t
  (** Nodes materialized as trees, other items as they are. *)
end

val eval : Xml.Tree.t -> Qast.expr -> Value.t
(** [eval doc e] evaluates [e] with [doc] as the context document. *)

val run : Xml.Tree.t -> string -> Value.t
(** Parse and evaluate.
    @raise Qparse.Error on syntax errors, {!Error} on runtime errors. *)

val run_to_xml : Xml.Tree.t -> string -> Xml.Tree.t list
(** [run] then materialize the result sequence as XML content. *)
