(* A small fixed domain pool for data-parallel sections.

   The pool is fork-join with *helping*: [parallel] enqueues claim tasks on
   a shared queue and the caller participates until its batch is finished,
   executing queued tasks (its own or anyone else's) while it waits.
   Helping makes nested [parallel] calls deadlock-free — a worker whose task
   opens an inner batch drains the queue itself instead of blocking — so
   callers can fan out recursively without reasoning about pool depth.

   Sizing is process-global: the effective job count starts at the
   [XMORPH_JOBS] environment variable (default 1) and can be overridden
   with [set_jobs] (the CLI's [--jobs]).  With one job, nothing is ever
   spawned and [parallel] degenerates to [List.map] run left to right — the
   exact sequential behavior of the pre-pool code, which is why 1 is the
   default.  Worker domains (always [jobs - 1]: the caller is the last
   participant) are spawned lazily on first use, kept for the life of the
   process, and joined from an [at_exit] hook. *)

let max_jobs = 64

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> min n max_jobs
  | _ -> 1

let env_jobs =
  match Sys.getenv_opt "XMORPH_JOBS" with None -> 1 | Some s -> parse_jobs s

let current_jobs = Atomic.make env_jobs

let jobs () = Atomic.get current_jobs

let set_jobs n = Atomic.set current_jobs (max 1 (min n max_jobs))

let default_jobs () = env_jobs

let recommended_jobs () = min max_jobs (Domain.recommended_domain_count ())

(* ---------- the shared queue and its workers ---------- *)

let m = Mutex.create ()

let work_cv = Condition.create () (* workers: the queue may be non-empty *)

let done_cv = Condition.create () (* batch owners: some batch made progress *)

let queue : (unit -> unit) Queue.t = Queue.create ()

let shutting_down = ref false

let worker_count = ref 0

let worker_domains : unit Domain.t list ref = ref []

(* Tasks are wrapped before enqueueing and never raise. *)
let worker_loop () =
  let running = ref true in
  while !running do
    Mutex.lock m;
    while Queue.is_empty queue && not !shutting_down do
      Condition.wait work_cv m
    done;
    if Queue.is_empty queue then begin
      running := false;
      Mutex.unlock m
    end
    else begin
      let task = Queue.pop queue in
      Mutex.unlock m;
      task ()
    end
  done

let ensure_workers target =
  Mutex.lock m;
  while !worker_count < target && not !shutting_down do
    incr worker_count;
    worker_domains := Domain.spawn worker_loop :: !worker_domains
  done;
  Mutex.unlock m

let () =
  at_exit (fun () ->
      Mutex.lock m;
      shutting_down := true;
      Condition.broadcast work_cv;
      let ds = !worker_domains in
      worker_domains := [];
      Mutex.unlock m;
      List.iter Domain.join ds)

(* ---------- fork-join batches ---------- *)

let parallel (fns : (unit -> 'a) list) : 'a list =
  let n = List.length fns in
  let j = jobs () in
  if j <= 1 || n <= 1 then List.map (fun f -> f ()) fns
  else begin
    ensure_workers (j - 1);
    let fns = Array.of_list fns in
    let results : 'a option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let remaining = ref n in (* protected by [m] *)
    let next = Atomic.make 0 in
    let run_one i =
      (match fns.(i) () with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      Mutex.lock m;
      decr remaining;
      if !remaining = 0 then Condition.broadcast done_cv;
      Mutex.unlock m
    in
    (* Participants claim indices until the batch is drained; a claim task
       that arrives after the batch finished is a no-op. *)
    let participate () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i < n then run_one i else continue := false
      done
    in
    Mutex.lock m;
    for _ = 1 to min (j - 1) (n - 1) do
      Queue.push participate queue
    done;
    Condition.broadcast work_cv;
    Condition.broadcast done_cv;
    Mutex.unlock m;
    participate ();
    (* Help with whatever is queued (possibly other batches' tasks) until
       every task of this batch has finished. *)
    Mutex.lock m;
    while !remaining > 0 do
      if not (Queue.is_empty queue) then begin
        let task = Queue.pop queue in
        Mutex.unlock m;
        task ();
        Mutex.lock m
      end
      else Condition.wait done_cv m
    done;
    Mutex.unlock m;
    (* Deterministic exception choice: the lowest-index failure wins. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list (Array.map Option.get results)
  end

(* ---------- partitioning helpers ---------- *)

let chunks ~total ~parts =
  if total <= 0 || parts <= 0 then [||]
  else begin
    let parts = min parts total in
    let base = total / parts and extra = total mod parts in
    let bounds = Array.make parts (0, 0) in
    let start = ref 0 in
    for i = 0 to parts - 1 do
      let len = base + if i < extra then 1 else 0 in
      bounds.(i) <- (!start, !start + len);
      start := !start + len
    done;
    bounds
  end
