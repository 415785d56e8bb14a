(** Guard labels and the names they denote: the one matcher for the types
    of a {!Dataguide} (type components) and the nodes of a target shape
    (output names).  An attribute's name carries the ["@"] marker. *)

val is_attribute : string -> bool
(** Whether a name starts with the ["@"] attribute marker. *)

val strip_at : string -> string
(** The name without its ["@"] marker: what an attribute is written as. *)

val resolve :
  name:('a -> string) -> parent:('a -> 'a option) -> string -> 'a list -> 'a list
(** [resolve ~name ~parent label candidates] keeps, in order, the
    candidates whose own name and ancestors' names end with the label's
    ["."]-separated components, compared case-insensitively (Sec. III).  A
    component ["@x"] matches only the attribute ["@x"]; a bare one matches
    elements, and attributes too only when the whole label matches nothing
    otherwise, so a guard may omit the ["@"] where no element shares the
    name. *)
