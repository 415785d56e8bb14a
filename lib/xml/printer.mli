(** XML serialization.

    One serializer, {!Writer}, in two modes: compact (no inserted
    whitespace — safe to re-parse into an equal tree) and indented
    (two-space indentation for human eyes).  The renderer writes through it
    one event at a time; {!to_buffer}, {!to_string} and
    {!to_string_indented} replay a tree into it.  All text and attribute
    values are escaped. *)

val escape_text : string -> string
(** Escape [& < >] for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets, and double quote for double-quoted
    attribute values. *)

val add_escaped_text : Buffer.t -> string -> int -> int -> unit
(** [add_escaped_text b s pos len] appends [escape_text (String.sub s pos
    len)] to [b] without the copy: each run between special characters
    goes in with one [Buffer.add_substring].
    @raise Invalid_argument if [pos] and [len] are not a slice of [s]. *)

val add_escaped_attr : Buffer.t -> string -> int -> int -> unit
(** {!add_escaped_text} for attribute values, as {!escape_attr} escapes. *)

(** Serialization one event at a time, in document order, without a tree.
    The bytes written are those of {!to_buffer} (or, indented,
    {!to_string_indented}) over the tree the same calls describe: an
    element per open/close pair, its attributes in order, and a text
    node per [text] call. *)
module Writer : sig
  type t

  val create : ?indent:bool -> ?on_close:(Buffer.t -> unit) -> Buffer.t -> t
  (** A writer appending to the buffer.  [on_close], when given, is called
      with the buffer after each element's end tag is written.

      With [~indent:true] every node ends its line with a newline and
      starts it with two spaces per enclosing element.  An element with no
      content is written [<a/>]; one whose content is only text keeps it on
      its line, [<a>text</a>]; once an element child arrives, each of the
      element's texts and children goes on a line of its own, and the end
      tag on a line at the start tag's indentation.  Texts written before
      the first element child are moved onto their lines then, so the
      writer holds back nothing. *)

  val open_element : t -> string -> unit

  val attribute : t -> string -> string -> int -> int -> unit
  (** [attribute w name s pos len]: an attribute of the element just
      opened, whose value is the slice, escaped in place. *)

  val text : t -> string -> int -> int -> unit
  (** Character data, escaped in place from the slice. *)

  val close_element : t -> string -> unit
  (** [close_element w name] ends the innermost open element, [name];
      one with neither text nor children is written as [<name/>]. *)

  val elements : t -> int
  (** Elements and attributes written so far. *)
end

val to_buffer : Buffer.t -> Tree.t -> unit
(** The tree replayed into a compact {!Writer} on the buffer. *)

val to_string : Tree.t -> string
(** {!to_buffer} into a fresh buffer. *)

val to_string_indented : Tree.t -> string
(** The tree replayed into an indenting {!Writer}; ends with a newline. *)

val serialized_size : Tree.t -> int
(** Byte length of [to_string t] without building the string. *)

val pp : Format.formatter -> Tree.t -> unit
(** Indented rendering on a formatter. *)
