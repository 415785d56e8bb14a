(* Facade over request contexts and the metrics registry.

   [phase name f] is the one-liner the pipeline uses: it opens a span
   [name] around [f] in the calling thread's request context (Ctx) when
   one is installed — so concurrent serve requests get disjoint span
   trees, and [--trace] gets the command's own — and, when metrics are
   on, records the latency into the [phase.<name>.seconds] histogram and
   bumps [phase.<name>.count].  With neither on it is two branches and a
   tail call — no allocation — so always-on instrumentation does not move
   Fig. 10's timings. *)

let phase ?attrs name f =
  if (not (Ctx.active ())) && not (Metrics.is_enabled ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let record () =
      if Metrics.is_enabled () then begin
        Metrics.observe ("phase." ^ name ^ ".seconds")
          (Unix.gettimeofday () -. t0);
        Metrics.inc ("phase." ^ name ^ ".count")
      end
    in
    let run () =
      match Ctx.current () with
      | Some ctx -> Ctx.with_span ?attrs ctx name f
      | None -> f ()
    in
    match run () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end
