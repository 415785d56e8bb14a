(** Tokenizer for XMorph guards.

    Guards are case- and whitespace-insensitive (Sec. III): keywords are
    recognized in any case; anything else word-shaped is a label.  Labels may
    be dotted ([book.author]) and may contain the characters XML names use
    ([-], [_], [:], [@] and alphanumerics). *)

type token =
  | MORPH
  | MUTATE
  | TRANSLATE
  | COMPOSE
  | DROP
  | CLONE
  | NEW
  | RESTRICT
  | CHILDREN
  | DESCENDANTS
  | CAST
  | CAST_NARROWING
  | CAST_WIDENING
  | TYPE_FILL
  | ORDER_BY  (** sibling-ordering extension *)
  | IDENT of string
  | STRING of string  (** quoted literal for value filters, an extension *)
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | PIPE
  | COMMA
  | ARROW
  | EQUALS
  | STAR
  | DBL_STAR
  | BANG
  | EOF

exception Error of { pos : int; msg : string }
(** Lexical error at a 0-based byte offset. *)

val tokenize : ?ctx:Xmobs.Ctx.t -> string -> (token * int) list
(** All tokens with their start offsets, ending with [EOF], lexed in a
    [lex] region of [ctx].
    @raise Error on an unexpected character. *)

val token_to_string : token -> string
