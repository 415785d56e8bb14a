(** A from-scratch, dependency-free XML parser.

    Supports the subset of XML 1.0 needed by this repository and its
    workloads: elements, attributes (single- or double-quoted), character data,
    CDATA sections, comments, processing instructions, an optional XML
    declaration and DOCTYPE (both skipped), the five predefined entities
    ([&lt; &gt; &amp; &apos; &quot;]) and decimal/hex character references.
    Namespace prefixes are kept as part of the name; DTD-defined entities are
    not expanded.

    Whitespace-only text between elements is dropped (element-content
    whitespace); whitespace adjacent to non-blank text is preserved. *)

exception Error of { line : int; col : int; msg : string }
(** Raised on malformed input with a 1-based source position; an error at
    end of input is placed one past the last character. *)

val parse : ?ctx:Xmobs.Ctx.t -> string -> Tree.t
(** Parse a complete document; the result is the root element, parsed
    in an [xml.parse] region of [ctx].  Equal
    element and attribute names within one parse are physically the same
    string; callers must not rely on that across parses, which share
    nothing.
    @raise Error on malformed input. *)

val error_message : exn -> string option
(** Human-readable rendering of an {!Error}; [None] for other exceptions. *)
