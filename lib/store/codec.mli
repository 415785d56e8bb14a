(** Compact binary encoding for the on-disk store.

    LEB128-style varints for unsigned integers, a zig-zag variant for signed
    ones, length-prefixed strings, and length-prefixed arrays.  The decoder
    reads from a string at a mutable cursor.  This codec is the only
    serialization used by {!Shredded} — no [Marshal], so the file format is
    stable across compiler versions. *)

val add_uint : Buffer.t -> int -> unit
(** Requires a non-negative argument. *)

val add_int : Buffer.t -> int -> unit
(** Any int, zig-zag encoded. *)

val add_string : Buffer.t -> string -> unit
val add_int_array : Buffer.t -> int array -> unit

(** Encoded sizes: the number of bytes the matching [add_*] appends. *)

val uint_size : int -> int
val int_size : int -> int
val int_array_size : int array -> int

type cursor = { data : string; mutable pos : int }

val cursor : ?pos:int -> string -> cursor

exception Corrupt of string
(** Raised by the [read_*] functions on truncated or malformed input. *)

val read_uint : cursor -> int
val read_int : cursor -> int
val read_string : cursor -> string
(** A fresh copy of the string's bytes; every empty string read is one
    shared [""]. *)

val read_int_array : cursor -> int array
