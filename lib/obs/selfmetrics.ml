(* Process self-metrics, sampled on demand (the serve daemon calls
   [sample] at every /metrics scrape and /stats snapshot, so the exported
   gauges are as fresh as the read that wants them — no background
   sampling thread).

   RSS comes from /proc/self/statm (resident pages * page size); when the
   file is absent or malformed the gauge is simply not set — never a
   raise, never a bogus 0 sample.  The path is injectable so the
   degradation is testable on systems that do have procfs.  The GC gauges
   are Gc.quick_stat fields — cheap, no heap walk. *)

(* OCaml's Unix module does not expose getpagesize, so ask getconf (which
   wraps sysconf(_SC_PAGESIZE)) once, lazily; 4 KiB — the Linux default —
   when the probe fails.  Systems running with 16K/64K pages (arm64,
   ppc64le) would otherwise under-report RSS by 4x/16x. *)
let probed_page_size = lazy (
  match Unix.open_process_in "getconf PAGESIZE 2>/dev/null" with
  | exception Unix.Unix_error _ -> 4096
  | ic ->
      let line = try input_line ic with End_of_file | Sys_error _ -> "" in
      let status = Unix.close_process_in ic in
      (match (status, int_of_string_opt (String.trim line)) with
      | Unix.WEXITED 0, Some n when n > 0 -> n
      | _ -> 4096))

let page_size () = Lazy.force probed_page_size

let statm_path = "/proc/self/statm"

let rss_bytes ?(path = statm_path) () =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let n =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.split_on_char ' ' line with
            | _size :: resident :: _ -> (
                match int_of_string_opt resident with
                | Some pages when pages >= 0 -> Some (pages * page_size ())
                | Some _ | None -> None)
            | _ -> None)
      in
      close_in_noerr ic;
      n

let fd_dir_path = "/proc/self/fd"

(* One entry per open descriptor.  Sys.readdir includes the descriptor
   opened to read the directory itself; that off-by-one is inherent to
   the probe (lsof has it too) and not worth correcting against — the
   gauge is for leak detection, where the trend matters. *)
let open_fds ?(fd_dir = fd_dir_path) () =
  match Sys.readdir fd_dir with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let stat_path = "/proc/self/stat"

(* /proc/self/stat field 20 (1-based) is the thread count, but the second
   field — comm — is a parenthesized name that may itself contain spaces
   or parentheses ("(tmux: server)").  Parse from after the *last* ')',
   which ends comm unambiguously; the thread count is then field 18 of
   the remainder (state is field 1). *)
let threads_total ?(stat = stat_path) () =
  match open_in stat with
  | exception Sys_error _ -> None
  | ic ->
      let n =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.rindex_opt line ')' with
            | None -> None
            | Some i ->
                let rest =
                  String.sub line (i + 1) (String.length line - i - 1)
                in
                let fields =
                  List.filter
                    (fun s -> s <> "")
                    (String.split_on_char ' ' rest)
                in
                (match List.nth_opt fields 17 with
                | Some f -> (
                    match int_of_string_opt f with
                    | Some t when t > 0 -> Some t
                    | Some _ | None -> None)
                | None -> None))
      in
      close_in_noerr ic;
      n

let started = Unix.gettimeofday ()

let sample ~r ?uptime_s ?statm ?fd_dir ?stat () =
  let uptime =
    match uptime_s with
    | Some u -> u
    | None -> Unix.gettimeofday () -. started
  in
  Metrics.set_gauge ~r "xmorph_uptime_seconds" uptime;
  (match rss_bytes ?path:statm () with
  | Some rss -> Metrics.set_gauge ~r "xmorph_rss_bytes" (float_of_int rss)
  | None -> ());
  (match open_fds ?fd_dir () with
  | Some fds -> Metrics.set_gauge ~r "xmorph_open_fds" (float_of_int fds)
  | None -> ());
  (match threads_total ?stat () with
  | Some t -> Metrics.set_gauge ~r "xmorph_threads_total" (float_of_int t)
  | None -> ());
  let s = Gc.quick_stat () in
  Metrics.set_gauge ~r "gc_major_collections"
    (float_of_int s.Gc.major_collections);
  Metrics.set_gauge ~r "gc_heap_words" (float_of_int s.Gc.heap_words);
  Metrics.set_gauge ~r "gc_minor_allocated_words" s.Gc.minor_words
