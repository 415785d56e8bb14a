(** XML serialization.

    Two renderings: [to_string] (compact, no inserted whitespace — safe to
    re-parse into an equal tree) and [to_string_indented] (two-space
    indentation for human eyes; elements with only text content stay on one
    line).  All text and attribute values are escaped. *)

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

(** Serialization one event at a time, in document order, without a tree:
    the calls {!Tree.Builder} accepts.  The bytes written are those of
    {!to_buffer} over the tree a builder makes of the same calls. *)
module Writer : sig
  type t

  val create : ?on_close:(Buffer.t -> unit) -> Buffer.t -> t
  (** A writer appending to the buffer.  [on_close], when given, is called
      with the buffer after each element's end tag is written. *)

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

val to_string : Tree.t -> string

val to_string_indented : Tree.t -> string

val to_buffer : Buffer.t -> Tree.t -> unit
(** Compact serialization appended to an existing buffer. *)

val serialized_size : Tree.t -> int
(** Byte length of [to_string t] without building the string. *)

val pp : Format.formatter -> Tree.t -> unit
(** Indented rendering on a formatter. *)
