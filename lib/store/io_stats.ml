type snapshot = {
  bytes_read : int;
  bytes_written : int;
  blocks_read : int;
  blocks_written : int;
  read_ops : int;
  write_ops : int;
}

(* Gauge handles into the current metrics registry, re-resolved when the
   registry is swapped so per-charge publication is a few field writes. *)
type handles = {
  hreg : Xmobs.Metrics.t;
  h_bytes_read : Xmobs.Metrics.gauge;
  h_bytes_written : Xmobs.Metrics.gauge;
  h_blocks_read : Xmobs.Metrics.gauge;
  h_blocks_written : Xmobs.Metrics.gauge;
  h_read_ops : Xmobs.Metrics.gauge;
  h_write_ops : Xmobs.Metrics.gauge;
}

(* The byte/op counters are atomics: a store may be charged from more than
   one domain (the tests do), and atomic adds commute — the cumulative
   totals are exact whatever the interleaving.  Everything observational
   ([handles], gauge publication) stays main-domain-only; see [publish]. *)
type t = {
  c_bytes_read : int Atomic.t;
  c_bytes_written : int Atomic.t;
  c_read_ops : int Atomic.t;
  c_write_ops : int Atomic.t;
  mutable handles : handles option;
}

let block_size = 4096

let create () : t =
  { c_bytes_read = Atomic.make 0; c_bytes_written = Atomic.make 0;
    c_read_ops = Atomic.make 0; c_write_ops = Atomic.make 0;
    handles = None }

(* Blocks are derived from cumulative bytes, modelling the page locality of
   document-ordered scans: many small sequential record reads share a page,
   as they do under BerkeleyDB's page cache. *)
let blocks_of bytes = (bytes + block_size - 1) / block_size

let metric_handles t =
  let reg = Xmobs.Metrics.current_registry () in
  match t.handles with
  | Some h when h.hreg == reg -> h
  | _ ->
      let g = Xmobs.Metrics.gauge ~r:reg in
      let h =
        { hreg = reg;
          h_bytes_read = g "store.bytes_read";
          h_bytes_written = g "store.bytes_written";
          h_blocks_read = g "store.blocks_read";
          h_blocks_written = g "store.blocks_written";
          h_read_ops = g "store.read_ops";
          h_write_ops = g "store.write_ops" }
      in
      t.handles <- Some h;
      h

(* Publish the cumulative counters to the gauges of the current metrics
   registry (observers fire once per charge).  Publication is a
   main-domain activity — observers and handle caching are single-domain
   structures — so charges arriving from any other domain only bump the
   atomics, and the gauges catch up at the next main-domain charge. *)
let publish t =
  if Xmobs.Metrics.is_enabled () && Domain.is_main_domain () then begin
    let h = metric_handles t in
    let bytes_read = Atomic.get t.c_bytes_read in
    let bytes_written = Atomic.get t.c_bytes_written in
    Xmobs.Metrics.gauge_set h.h_bytes_read (float_of_int bytes_read);
    Xmobs.Metrics.gauge_set h.h_bytes_written (float_of_int bytes_written);
    Xmobs.Metrics.gauge_set h.h_blocks_read
      (float_of_int (blocks_of bytes_read));
    Xmobs.Metrics.gauge_set h.h_blocks_written
      (float_of_int (blocks_of bytes_written));
    Xmobs.Metrics.gauge_set h.h_read_ops
      (float_of_int (Atomic.get t.c_read_ops));
    Xmobs.Metrics.gauge_set h.h_write_ops
      (float_of_int (Atomic.get t.c_write_ops));
    Xmobs.Metrics.notify ()
  end

let reset (t : t) =
  Atomic.set t.c_bytes_read 0;
  Atomic.set t.c_bytes_written 0;
  Atomic.set t.c_read_ops 0;
  Atomic.set t.c_write_ops 0;
  publish t

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

(* Mirror each charge into the calling thread's request context (its
   spans' I/O, and its frames' pages crossed from [before]).  A render
   charges on the thread that called it, so the attribution is exact. *)
let charge_read (t : t) bytes =
  let before = Atomic.fetch_and_add t.c_bytes_read bytes in
  ignore (Atomic.fetch_and_add t.c_read_ops 1);
  Xmobs.Ctx.charge_read ~before bytes;
  publish t

let charge_write (t : t) bytes =
  let before = Atomic.fetch_and_add t.c_bytes_written bytes in
  ignore (Atomic.fetch_and_add t.c_write_ops 1);
  Xmobs.Ctx.charge_write ~before bytes;
  publish t

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
