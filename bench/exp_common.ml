(* Shared plumbing for the experiment harness.

   The paper ran each experiment five times on a cold cache and took the
   median; we do the same (minus the cache clearing, which has no analogue
   for an in-process store — the store decodes records on every access, so
   repeated runs do not get "warmer" at the store level). *)

let runs = 5

let median_time f =
  let times =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare times in
  List.nth sorted (runs / 2)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

let sub what = Printf.printf "---- %s ----\n%!" what

let mb bytes = float_of_int bytes /. 1e6

(* When XMORPH_BENCH_CSV names a directory, every printed table is also
   written there as <section>.csv for plotting. *)
let csv_dir = Sys.getenv_opt "XMORPH_BENCH_CSV"

let csv_section = ref "bench"

let set_section name = csv_section := name

let csv_counter = Hashtbl.create 8

let write_csv ~columns rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let n =
        let c = 1 + Option.value ~default:0 (Hashtbl.find_opt csv_counter !csv_section) in
        Hashtbl.replace csv_counter !csv_section c;
        c
      in
      let path =
        Filename.concat dir
          (if n = 1 then !csv_section ^ ".csv"
           else Printf.sprintf "%s-%d.csv" !csv_section n)
      in
      let oc = open_out path in
      let quote cell =
        if String.exists (fun c -> c = ',' || c = '"') cell then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
        else cell
      in
      output_string oc
        (String.concat "," (List.map (fun (h, _) -> quote h) columns));
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map quote row));
          output_char oc '\n')
        rows;
      close_out oc

(* Column-formatted table printing. *)
let print_table ~columns rows =
  write_csv ~columns rows;
  let widths =
    List.mapi
      (fun i (h, _) ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let align = snd (List.nth columns i) in
        (match align with
        | `L -> Printf.printf "%-*s" w cell
        | `R -> Printf.printf "%*s" w cell);
        print_string "  ")
      cells;
    print_newline ()
  in
  print_row (List.map fst columns);
  print_row (List.map (fun (h, _) -> String.make (String.length h) '-') columns);
  List.iter print_row rows

let fmt_s t = Printf.sprintf "%.3f" t

let fmt_f1 t = Printf.sprintf "%.1f" t

let fmt_int = string_of_int

(* Render a transformation into a fresh buffer, returning stats. *)
let render_guard store guard =
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard
  in
  let buf = Buffer.create (1 lsl 20) in
  Xmorph.Interp.render_to_buffer store compiled buf

let compile_guard store guard =
  Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store) guard

(* Heap words currently live, in MB (4 KiB pages would be overkill). *)
let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * (Sys.word_size / 8)) /. 1e6

(* Sample [read ()] every 5 ms on a second domain while [f] runs on this
   one, as vmstat sampled the paper's runs (Sec. IX).  The series holds
   (elapsed s, value) pairs, oldest first: one taken before [f] starts,
   one per tick while it runs and one after it returns, so even a run
   shorter than a tick has two.  [read] must be safe from another domain,
   as [Store.Io_stats.snapshot] (atomics) and [Gc.quick_stat] are. *)
let sample_during read f =
  let interval = 0.005 in
  let started = Atomic.make false and stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        let first = (0.0, read ()) in
        Atomic.set started true;
        let rec loop k acc =
          let next = t0 +. (float_of_int (k + 1) *. interval) in
          Unix.sleepf (Float.max 0.0 (next -. Unix.gettimeofday ()));
          let stopped = Atomic.get stop in
          let acc = (Unix.gettimeofday () -. t0, read ()) :: acc in
          if stopped then List.rev acc else loop (k + 1) acc
        in
        loop 0 [ first ])
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  let r = Fun.protect f ~finally:(fun () -> Atomic.set stop true) in
  (r, Domain.join sampler)

(* A series without its readings before and after the run shows no slope. *)
let require_samples ~factor series =
  if List.length series < 2 then begin
    Printf.eprintf "factor %.2f: %d sample(s), need at least two\n" factor
      (List.length series);
    false
  end
  else true
