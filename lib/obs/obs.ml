(* The sinks a command or daemon owns. *)

type sinks = {
  qlog : Qlog.t option;
  statdb : Statdb.t option;
  metrics : Metrics.t option;
}

let no_sinks = { qlog = None; statdb = None; metrics = None }
