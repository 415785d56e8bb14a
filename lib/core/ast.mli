(** Abstract syntax of XMorph 2.0 guards (Sec. III of the paper).

    A guard is a pipeline of transformation stages wrapped in optional
    type-enforcement modifiers.  Patterns describe shapes: a label selects
    types, brackets nest children, [*] and [**] pull in source children and
    descendants, and the special forms ([DROP], [CLONE], [NEW], [RESTRICT])
    appear parenthesized inside shapes. *)

type pattern =
  | Label of { label : string; bang : bool }
      (** A type label, possibly dotted ([book.author]) to disambiguate.
          [bang] records a [!] prefix (accepted for compatibility with the
          paper's examples; shape semantics are unaffected). *)
  | Tree of pattern * pattern list
      (** [p0 \[ p1 ... pn \]]: the roots of each [pi] become children of the
          closest root of [p0]. *)
  | Star  (** as a child item: include the parent's source children *)
  | Dbl_star  (** as a child item: include the parent's source descendants *)
  | Children of pattern  (** [CHILDREN p], equivalent to [p \[*\]] *)
  | Descendants of pattern  (** [DESCENDANTS p], equivalent to [p \[**\]] *)
  | Drop of pattern  (** [DROP p] (only meaningful under MUTATE) *)
  | Clone of pattern  (** [CLONE p] *)
  | New of string  (** [NEW label] *)
  | Restrict of pattern  (** [RESTRICT p] *)
  | Value_eq of pattern * string
      (** [p = "literal"]: keep only instances whose text value equals the
          literal.  An extension beyond the paper (its Sec. III notes
          value-based transformations as future work); inherently narrowing,
          and flagged as such by the loss analysis. *)
  | Order_by of pattern * string * bool
      (** [p ORDER-BY label] (ascending) or [p ORDER-BY label desc] (the
          flag set): render [p]'s instances sorted by the text of their
          closest [label] instances.  An extension — Sec. III notes that
          XMorph "cannot express an ordering among siblings" and leaves it
          to future work.  Purely presentational: the closest relation and
          the loss analysis are unaffected. *)

type stage =
  | Morph of pattern list
      (** desired shape made only of the mentioned types *)
  | Mutate of pattern list
      (** rearrange the whole current shape *)
  | Translate of (string * string) list
      (** rename types; [TRANSLATE a -> b] (the semantics section calls the
          same operator TRANSFORM; both keywords parse) *)

type cast = Cast_weak | Cast_narrowing | Cast_widening

type t =
  | Stage of stage
  | Compose of t * t  (** [g1 | g2] or [COMPOSE g1, g2] *)
  | Cast of cast * t
  | Type_fill of t

val pp_pattern : Format.formatter -> pattern -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
