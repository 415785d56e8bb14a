(** XQuery-lite values.

    The query substrate the guards protect (architecture 1 of Sec. VIII: the
    data is physically transformed, then the query runs on the result).
    Values are flat sequences of items, as in the XQuery data model; nodes
    are plain {!Xml.Tree.t} subtrees (no parent axis — the supported language
    subset never navigates upward).

    Items are polymorphic in their node type so that one evaluator
    ({!Eval.Make}) serves every navigation model; the atomization and
    comparison rules below take the string value of a node as an argument
    and are written once for all of them. *)

type 'n item_of =
  | Node of 'n
  | Attr of string * string  (** attribute name/value pair selected by [@a] *)
  | Str of string
  | Num of float
  | Bool of bool

type item = Xml.Tree.t item_of

type t = item list
(** A sequence.  The empty sequence doubles as "absent". *)

val of_node : Xml.Tree.t -> t

val atomize : ('n -> string) -> 'n item_of -> string
(** XPath string value, given that of a node: the value for attributes,
    canonical rendering for atomics. *)

val string_value : item -> string
(** [atomize] with a node's full text content. *)

val effective_bool : 'n item_of list -> bool
(** XQuery effective boolean value: empty = false; a single boolean = itself;
    any node/non-empty string/non-zero number = true. *)

val number : ('n -> string) -> 'n item_of -> float option
(** Numeric value; untyped items (nodes, attributes, strings) parse their
    string value as XPath 1.0 [number()] does: an optional minus sign,
    then digits with an optional fraction or a fraction alone, between
    optional whitespace (space, tab, CR, LF).  Any other string (["inf"],
    ["0x10"], ["1_000"], ["1e3"], [""]) is NaN, given as [None]. *)

val to_number : item -> float option

val equal : ('n -> string) -> 'n item_of -> 'n item_of -> bool
(** General comparison semantics for [=] on atomized items: numerically when
    either side is a number, else as strings — so two untyped nodes, or a
    node and a string, compare as strings. *)

val item_equal : item -> item -> bool

val to_trees : t -> Xml.Tree.t list
(** Materialize a sequence as XML content: nodes kept, atomics become text
    nodes, attributes become text. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
