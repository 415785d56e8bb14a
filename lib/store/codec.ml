exception Corrupt of string

(* Emit an int's bit pattern as an unsigned base-128 varint; [lsr] makes the
   recursion terminate for negative patterns too.  The encoders take the
   buffer as an argument rather than closing over it, so encoding
   allocates nothing but buffer growth. *)
let rec add_varint b n =
  if n land lnot 0x7F = 0 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (n land 0x7F)));
    add_varint b (n lsr 7)
  end

(* Zig-zag: map ..., -2, -1, 0, 1, ... to 3, 1, 0, 2, ...; the result is
   interpreted as a bit pattern, so extremes survive the shift. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let add_uint b n =
  assert (n >= 0);
  add_varint b n

let add_int b n = add_varint b (zigzag n)

(* Encoded sizes, computed without encoding. *)
let rec uint_size n = if n land lnot 0x7F = 0 then 1 else 1 + uint_size (n lsr 7)

let int_size n = uint_size (zigzag n)

let int_array_size a =
  Array.fold_left (fun acc n -> acc + int_size n) (uint_size (Array.length a)) a

let add_string b s =
  add_uint b (String.length s);
  Buffer.add_string b s

let add_int_array b a =
  add_uint b (Array.length a);
  for i = 0 to Array.length a - 1 do
    add_int b a.(i)
  done

type cursor = { data : string; mutable pos : int }

let cursor ?(pos = 0) data = { data; pos }

let read_byte c =
  if c.pos >= String.length c.data then raise (Corrupt "truncated input");
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

(* Top-level rather than local to [read_uint], so a read allocates no
   closure. *)
let rec read_varint c shift acc =
  if shift >= Sys.int_size then raise (Corrupt "varint too long");
  let byte = read_byte c in
  let acc = acc lor ((byte land 0x7F) lsl shift) in
  if byte land 0x80 = 0 then acc else read_varint c (shift + 7) acc

let read_uint c = read_varint c 0 0

let read_int c =
  let z = read_uint c in
  (z lsr 1) lxor (-(z land 1))

(* Every empty string read is the one [""]: a third of the nodes of the
   workload corpora have no text. *)
let read_string c =
  let n = read_uint c in
  if c.pos + n > String.length c.data then raise (Corrupt "truncated string");
  let s = if n = 0 then "" else String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_int_array c =
  let n = read_uint c in
  Array.init n (fun _ -> read_int c)
