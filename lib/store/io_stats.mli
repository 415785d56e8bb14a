(** I/O accounting.

    The paper's evaluation shows that block I/O drives the cost of a
    transformation (Figs. 11–12: steady cumulative block I/O, ~40% CPU wait).
    The original system measured this with vmstat; running on arbitrary
    hardware we substitute explicit accounting: every byte that crosses the
    store boundary (node-record reads, sequence reads, output writes) is
    charged here, in {!block_size}-byte blocks, along with a simulated I/O
    latency so a wait-percentage can be derived.

    Counters are per-instance; a store owns one and shares it with the
    renderer that reads from it.  A charge touches counters only: this
    one's atomics and, when the charging operation passes one, the
    {!Xmobs.Ctx} request context it resolved once when it began, whose
    spans (and profiler frames) carry the I/O charged under them.  No
    lock, lookup or allocation happens per charge.

    A store's counters are read, never pushed: {!snapshot} is what the
    experiment harness samples on a timer (the paper's Figs. 11–13), and
    what the execution path ([Xmserve.Exec]) and the serve daemon's
    update route set the [store.*] gauges of their owner's metrics
    registry from, once per execution or write.

    The library renders on the caller's domain and starts no domains of
    its own.  The byte/op counters are atomics, so a caller that charges
    one store from several domains gets exact totals — atomic adds
    commute — and {!snapshot} may be read from any domain while another
    charges (the experiment harness samples it on a timer). *)

type t

val block_size : int
(** 4096 bytes, matching the Linux block accounting the paper sampled
    ({!Xmobs.Ctx.block_size}: one page model for the store and the
    request context). *)

type snapshot = {
  bytes_read : int;
  bytes_written : int;
  blocks_read : int;  (** derived from cumulative bytes read — sequential
                          record reads share pages, as under a page cache *)
  blocks_written : int;
  read_ops : int;
  write_ops : int;
}

val create : unit -> t
val reset : t -> unit
(** Zero the counters. *)

val charge_read : ?ctx:Xmobs.Ctx.t -> t -> int -> unit
(** [charge_read ?ctx t bytes] records a read of [bytes] bytes, and adds
    it to [ctx] when given ({!Xmobs.Ctx.charge_read}: per-request I/O
    attribution, and the page crossings of this counter for its frames).
    The caller resolves [ctx] once per operation, never per charge. *)

val charge_write : ?ctx:Xmobs.Ctx.t -> t -> int -> unit

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: the I/O charged between two snapshots of the
    same counter set (fields subtract; block counts are deltas of the
    cumulative page-rounded totals).  The query log uses this to attribute
    block I/O to one execution. *)

val blocks_total : snapshot -> int

val simulated_io_seconds : snapshot -> float
(** Simulated time spent in I/O, using a fixed per-block latency model
    (sequential-read throughput of a 2012-era mirrored disk pair).  Used to
    reproduce the Fig. 12 wait-percentage series. *)

val pp : Format.formatter -> snapshot -> unit
