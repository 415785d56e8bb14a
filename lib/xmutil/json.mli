(** A minimal JSON value type, serializer, and parser — no external
    dependency in a sealed environment — and the one vocabulary every
    JSON file and body is read and written through: query-log records,
    stats-db warehouses, incident bundles, alert-rule files, slow-query
    captures, and the [/stats] and [/debug/timeseries] bodies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize; [~pretty:true] (default) indents with two spaces.  Strings
    are escaped per RFC 8259 (control characters as [\uXXXX]). *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit

exception Parse_error of { pos : int; msg : string }

val of_string : string -> t
(** Parse a complete JSON document.  Raises {!Parse_error} on malformed
    input or trailing content.  Numbers without a fraction or exponent
    parse as [Int] (falling back to [Float] beyond the native int range);
    [\uXXXX] escapes decode to UTF-8. *)

val error_message : pos:int -> msg:string -> string
(** The one wording of a {!Parse_error}: [invalid JSON at byte POS: MSG]. *)

(** {2 Files} *)

val read_file : string -> t
(** The one value a file holds.
    @raise Sys_error when the file cannot be read.
    @raise Parse_error when it is not one JSON value. *)

val write_file : string -> t -> unit
(** Write pretty JSON and a newline to [path ^ ".tmp"], then rename it
    over [path]: a reader never sees a half-written file.
    @raise Sys_error when the file cannot be written. *)

(** {2 Tolerant reads}

    For documents whose fields may be absent, as in a body from another
    build of the daemon: a miss is [None], never a raise. *)

val path : t -> string list -> t option
(** The value reached by following object members by name; [[]] is the
    value itself. *)

val number_at : t -> string list -> float option
(** An [Int] or a [Float] at the path, as a float. *)

val int_at : t -> string list -> int option
(** An [Int] or a [Float] at the path, as an int (truncated). *)

val string_at : t -> string list -> string option

val list_at : t -> string list -> t list
(** The list at the path; [[]] on a miss. *)

(** {2 Strict reads}

    For formats that must hold a field.  A failure raises
    [Failure "WHAT: missing field \"x\""],
    [Failure "WHAT: field \"x\" is not a number"] (or a string, a list,
    an object), or [Failure "WHAT: not a JSON object"], where [WHAT]
    names the document, as given to {!fields}. *)

type fields
(** An object's members, with the name its errors call the document by. *)

val fields : what:string -> t -> fields
(** @raise Failure when the value is not an object. *)

val int_field : fields -> string -> int
(** An [Int], or a [Float] truncated. *)

val float_field : fields -> string -> float
(** A [Float], or an [Int]. *)

val string_field : fields -> string -> string
val list_field : fields -> string -> t list

val object_field : fields -> string -> fields
(** A member object, read under the same [WHAT]. *)
