type snapshot = {
  bytes_read : int;
  bytes_written : int;
  blocks_read : int;
  blocks_written : int;
  read_ops : int;
  write_ops : int;
}

(* The byte/op counters are atomics: a store may be charged from more than
   one domain (the tests do), and atomic adds commute — the cumulative
   totals are exact whatever the interleaving. *)
type t = {
  c_bytes_read : int Atomic.t;
  c_bytes_written : int Atomic.t;
  c_read_ops : int Atomic.t;
  c_write_ops : int Atomic.t;
}

let block_size = Xmobs.Ctx.block_size

let create () : t =
  { c_bytes_read = Atomic.make 0; c_bytes_written = Atomic.make 0;
    c_read_ops = Atomic.make 0; c_write_ops = Atomic.make 0 }

(* Blocks are derived from cumulative bytes, modelling the page locality of
   document-ordered scans: many small sequential record reads share a page,
   as they do under BerkeleyDB's page cache. *)
let blocks_of = Xmobs.Ctx.blocks_of

let snapshot (t : t) : snapshot =
  let bytes_read = Atomic.get t.c_bytes_read in
  let bytes_written = Atomic.get t.c_bytes_written in
  {
    bytes_read;
    bytes_written;
    blocks_read = blocks_of bytes_read;
    blocks_written = blocks_of bytes_written;
    read_ops = Atomic.get t.c_read_ops;
    write_ops = Atomic.get t.c_write_ops;
  }

let reset (t : t) =
  Atomic.set t.c_bytes_read 0;
  Atomic.set t.c_bytes_written 0;
  Atomic.set t.c_read_ops 0;
  Atomic.set t.c_write_ops 0

let charge_read ?ctx (t : t) bytes =
  let before = Atomic.fetch_and_add t.c_bytes_read bytes in
  Atomic.incr t.c_read_ops;
  match ctx with Some c -> Xmobs.Ctx.charge_read c ~before bytes | None -> ()

let charge_write ?ctx (t : t) bytes =
  let before = Atomic.fetch_and_add t.c_bytes_written bytes in
  Atomic.incr t.c_write_ops;
  match ctx with Some c -> Xmobs.Ctx.charge_write c ~before bytes | None -> ()

let diff (later : snapshot) (earlier : snapshot) : snapshot =
  {
    bytes_read = later.bytes_read - earlier.bytes_read;
    bytes_written = later.bytes_written - earlier.bytes_written;
    blocks_read = later.blocks_read - earlier.blocks_read;
    blocks_written = later.blocks_written - earlier.blocks_written;
    read_ops = later.read_ops - earlier.read_ops;
    write_ops = later.write_ops - earlier.write_ops;
  }

let blocks_total s = s.blocks_read + s.blocks_written

(* ~100 MB/s sequential throughput => ~40 microseconds per 4 KiB block. *)
let seconds_per_block = 4.0e-5

let simulated_io_seconds s = float_of_int (blocks_total s) *. seconds_per_block

let pp fmt s =
  Format.fprintf fmt
    "read %d B (%d blk, %d ops); wrote %d B (%d blk, %d ops)"
    s.bytes_read s.blocks_read s.read_ops s.bytes_written s.blocks_written
    s.write_ops
