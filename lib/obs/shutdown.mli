(** Graceful-shutdown flush path shared by every telemetry sink.

    The owner of each telemetry sink registers its flush with {!on_exit}:
    the CLI registers [--trace], [--metrics], [--profile], the query log
    and the statistics warehouse in one place, and no sink registers
    itself.  {!install} converts SIGTERM and SIGINT into
    [Stdlib.exit (128 + signum)], so the ordinary [at_exit] chain — and
    with it every registered flush — runs on signals too.  Callbacks run
    once, in registration order; exceptions in one callback do not stop
    the rest. *)

val on_exit : (unit -> unit) -> unit
(** Register a callback to run once, on normal exit or on a handled
    termination signal. *)

val install : unit -> unit
(** Install the SIGTERM/SIGINT handlers (idempotent).  A signal
    disposition that something else already changed from the default is
    left alone. *)

val signal_exit_code : int -> int
(** Conventional exit status for dying on a signal ([128 + N] with the
    {e system} signal number): 143 for [Sys.sigterm], 130 for
    [Sys.sigint].  OCaml's [Sys] signal constants are negative portable
    encodings, so [128 + Sys.sigterm] would be wrong. *)
