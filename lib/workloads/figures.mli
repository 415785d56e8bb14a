(** The running example of the paper: the three instances of Figure 1.

    All three hold the same book/author/publisher facts in different shapes:
    (a) books at the top with authors and publishers nested inside, (b)
    publishers at the top, (c) the normalized shape with authors grouped by
    name.  The motivating query guard

    {v MORPH author [ name book [ title ] ] v}

    succeeds on all three, which examples and tests exercise. *)

val instance_a : string
(** XML text of Fig. 1(a): [data/book/(title, author/name, publisher/name)]. *)

val instance_b : string
(** Fig. 1(b): [data/publisher/(name, book/(title, author/name))]. *)

val instance_c : string
(** Fig. 1(c), normalized: [data/(author/(name, book/title), publisher/name)]. *)

val doc_b : unit -> Xml.Doc.t
val doc_c : unit -> Xml.Doc.t

val example_guard : string
(** The paper's Sec. I guard: [MORPH author \[ name book \[ title \] \]]. *)

val widening_guard : string
(** The paper's Fig. 3 guard:
    [MORPH author \[ !title name publisher \[ name \] \]]. *)

val example_query : string
(** The motivating XQuery: book titles per author, written against the shape
    declared by {!example_guard}. *)
