(** Recursive-descent parser for XMorph guards.

    Grammar (tokens from {!Lexer}; [*] and [**] may appear as items inside
    brackets, meaning the source children / descendants of the bracket's
    owner):

    {v
    guard    ::= unit ('|' unit)*
    unit     ::= 'CAST' unit | 'CAST-NARROWING' unit | 'CAST-WIDENING' unit
               | 'TYPE-FILL' unit
               | 'COMPOSE' guard (',' guard)+
               | '(' guard ')'
               | 'MORPH' shape | 'MUTATE' shape
               | 'TRANSLATE' label '->' label (',' label '->' label)*
    shape    ::= item+
    item     ::= prim ('[' item* ']')?
    prim     ::= '!'? label | '*' | '**' | special | '(' (special | item) ')'
    special  ::= 'DROP' item | 'CLONE' item | 'NEW' label | 'RESTRICT' item
               | 'CHILDREN' item | 'DESCENDANTS' item
    v} *)

exception Error of { pos : int; msg : string }
(** Syntax error at a 0-based byte offset into the guard text. *)

val guard : ?ctx:Xmobs.Ctx.t -> string -> Ast.t
(** Parse a complete guard, in a [parse] region of [ctx] (its [lex]
    region nested).  @raise Error on malformed input. *)

val error_message : string -> exn -> string option
(** [error_message src exn] renders a {!Error} or {!Lexer.Error} against the
    source text with a caret; [None] for other exceptions. *)
