(* A common flush path for telemetry sinks.

   The CLI's --trace/--metrics/--profile/--qlog/--stats-db writers all
   want the same guarantee: whatever has been
   collected reaches disk on *any* orderly end of the process — clean
   exit, SIGTERM, or SIGINT.  [on_exit] registers a callback; [install]
   converts the two termination signals into [Stdlib.exit (128 + signum)],
   which runs the ordinary [at_exit] chain, so one registration covers
   every path and nothing runs twice ([at_exit] callbacks fire once).

   Callbacks run in registration order and exceptions are swallowed: a
   failing exporter must not keep the next sink from flushing. *)

let callbacks : (unit -> unit) list ref = ref []

let ran = ref false

let run_all () =
  if not !ran then begin
    ran := true;
    List.iter (fun f -> try f () with _ -> ()) (List.rev !callbacks)
  end

let registered = ref false

let on_exit f =
  if not !registered then begin
    registered := true;
    at_exit run_all
  end;
  callbacks := f :: !callbacks

(* [Sys.sigterm]/[Sys.sigint] are OCaml's portable (negative) signal
   numbers, not the system ones — map them back so the process exits with
   the conventional 128+N status the shell reports for an unhandled kill. *)
let signal_exit_code n =
  if n = Sys.sigterm then 128 + 15
  else if n = Sys.sigint then 128 + 2
  else 128 + abs n

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    let handle n = Stdlib.exit (signal_exit_code n) in
    List.iter
      (fun s ->
        (* Keep an explicit Signal_ignore (or a handler someone else set
           for SIGINT in an interactive context) working: only the default
           disposition is replaced. *)
        match Sys.signal s (Sys.Signal_handle handle) with
        | Sys.Signal_default -> ()
        | previous -> Sys.set_signal s previous
        | exception Invalid_argument _ -> ()
        | exception Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ]
  end
