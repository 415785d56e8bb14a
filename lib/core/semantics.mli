(** The denotational shape semantics ξ (Sec. VI).

    A guard denotes a function from shapes to shapes; [eval] applies that
    function to a source shape (a {!Xml.Dataguide}).  Evaluation proceeds
    stage by stage through COMPOSE pipes: MORPH builds a fresh shape from the
    mentioned types of the current shape, MUTATE rearranges a copy of the
    current shape wholesale, TRANSLATE renames.  Labels are resolved against
    the {e current} shape; ambiguous labels are disambiguated by choosing the
    closest pairs of parent and child types (the paper's type analysis,
    Sec. VIII), and every resolution is recorded in the label report.

    Decisions where the paper is underspecified are documented in DESIGN.md:
    DROP promotes children, NEW wraps per first-child instance, a MUTATE'd
    fresh node is inserted at its first child's old position, and star
    expansions dedup silently against explicitly mentioned types. *)

type result = {
  shape : Tshape.t;
  labels : Report.label_report;
  warnings : string list;
}

val eval : ?ctx:Xmobs.Ctx.t -> Xml.Dataguide.t -> Algebra.t -> result
(** Evaluate a guard against a source shape.  As a side effect the algebra's
    [inferred] annotations are filled in (the type analysis).  While [ctx]
    keeps frames, each algebra operator is an operator region of it.

    @raise Tshape.Error on semantic errors: a label that matches no type
    (when no TYPE-FILL is in force), a duplicated non-clone type, DROP
    outside MUTATE, or a bare [*]/[**]. *)
