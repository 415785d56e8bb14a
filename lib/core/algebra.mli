(** The XMorph algebra (Sec. VIII).

    Guards are translated operator-for-keyword into an algebra tree (the
    paper's Fig. 9), which the interpreter then type-analyzes and evaluates
    into a target shape.  The [inferred] field is filled in by the type
    analysis in {!Semantics}: the set of source types each operator
    contributes, after ambiguous labels are resolved by closeness and unused
    types are pruned. *)

type t = { desc : desc; mutable inferred : Xml.Type_table.id list }

and desc =
  | Compose of t * t  (** pipe the first guard's shape into the second *)
  | Morph of t list  (** build a shape of only the mentioned types *)
  | Mutate of t list  (** rearrange the whole current shape *)
  | Translate of (string * string) list
  | Type_sel of { label : string; bang : bool }  (** select type(s) by label *)
  | Closest of t * t list
      (** [Closest (parent, items)]: attach each item's roots below the
          closest root of [parent] *)
  | Star_children  (** the [*] item *)
  | Star_descendants  (** the [**] item *)
  | Children_of of t
  | Descendants_of of t
  | Drop of t
  | Clone of t
  | New_label of string
  | Restrict of t
  | Value_eq of t * string  (** value filter (extension) *)
  | Order_by of t * string * bool
      (** sibling ordering (extension): key label, descending *)
  | Cast of Ast.cast * t
  | Type_fill of t

val of_ast : Ast.t -> t

val op_name : t -> string
(** The one-line label [pp] prints for this operator (e.g. [type(author)],
    [closest], [value(= "x")]) — also used as the profiler's frame name so
    profiles read like Fig. 9 plans. *)

val pp : Format.formatter -> t -> unit
(** Indented operator-tree rendering à la Fig. 9, including inferred types
    when the analysis has run. *)

val pp_annotated : annot:(t -> string) -> Format.formatter -> t -> unit
(** {!pp} with a caller-chosen per-node suffix instead of the raw inferred
    type ids — [xmorph explain] annotates each operator with predicted
    cardinalities and warehouse history. *)

val to_string : t -> string

val cast_mode : t -> Ast.cast option
(** The outermost cast wrapping the guard, if any. *)

val has_type_fill : t -> bool
(** Whether a TYPE-FILL wraps (any part of) the guard. *)
