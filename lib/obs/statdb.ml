(* The operator-statistics warehouse.

   Layout: a hash table keyed by (guard_hash, op_name) holding mutable
   summary rows.  Recording flattens a frame tree — frames merged by
   name, so a render with fifty activations of closest(a->b) lands in one
   row with calls=50 — and folds predicted closest-join cardinalities
   against the pairs the frames actually produced.

   Persistence is deliberately boring: one pretty-printed JSON document,
   written atomically by [Xmutil.Json.write_file] and re-merged on load.  Corruption
   of a telemetry file must never take the query path down, so every load
   failure degrades to an empty warehouse with a warning. *)

type summary = {
  s_guard : string;
  s_op : string;
  mutable calls : int;
  mutable wall_us : float;
  mutable self_us : float;
  mutable in_nodes : int;
  mutable out_nodes : int;
  mutable pairs : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable latency : (int * int) list;
  mutable pred_lo : int;
  mutable pred_hi : int;
  mutable observed : int;
  mutable qerr_sum : float;
  mutable qerr_max : float;
  mutable qerr_n : int;
}

type t = {
  tbl : (string * string, summary) Hashtbl.t;
  lock : Mutex.t;
  file : string option; (* the file [load] read, which [flush] rewrites *)
  mutable dirty : bool; (* recorded into since the last flush *)
}

(* ---------- latency buckets ----------

   Quarter-octave log scale over per-call self microseconds, mid 32:
   about 2^-8 us .. 2^24 us, i.e. nanoseconds to ~14 s — wider than any
   operator self time we record. *)

let scale = Xmutil.Logscale.make ~per_octave:4 ~mid:32 ~count:128
let buckets = scale.count
let bucket_of_us us = Xmutil.Logscale.index scale us
let bucket_value_us i = Xmutil.Logscale.value scale i

let make file =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); file; dirty = false }

let create () = make None

let fresh guard op =
  {
    s_guard = guard;
    s_op = op;
    calls = 0;
    wall_us = 0.0;
    self_us = 0.0;
    in_nodes = 0;
    out_nodes = 0;
    pairs = 0;
    blocks_read = 0;
    blocks_written = 0;
    latency = [];
    pred_lo = 0;
    pred_hi = 0;
    observed = 0;
    qerr_sum = 0.0;
    qerr_max = 0.0;
    qerr_n = 0;
  }

let find_row_unlocked t guard op =
  let key = (guard, op) in
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let s = fresh guard op in
      Hashtbl.add t.tbl key s;
      s

let add_latency s idx n =
  let rec go = function
    | [] -> [ (idx, n) ]
    | (i, c) :: rest when i = idx -> (i, c + n) :: rest
    | (i, _) :: _ as l when i > idx -> (idx, n) :: l
    | pair :: rest -> pair :: go rest
  in
  s.latency <- go s.latency

(* Fold one already-flattened per-operator total into a row. *)
let add_frame_totals s ~calls ~wall ~self ~in_nodes ~out_nodes ~pairs ~br ~bw =
  s.calls <- s.calls + calls;
  s.wall_us <- s.wall_us +. wall;
  s.self_us <- s.self_us +. self;
  s.in_nodes <- s.in_nodes + in_nodes;
  s.out_nodes <- s.out_nodes + out_nodes;
  s.pairs <- s.pairs + pairs;
  s.blocks_read <- s.blocks_read + br;
  s.blocks_written <- s.blocks_written + bw;
  if calls > 0 then
    add_latency s (bucket_of_us (self /. float_of_int calls)) calls

type flat = {
  mutable f_calls : int;
  mutable f_wall : float;
  mutable f_self : float;
  mutable f_in : int;
  mutable f_out : int;
  mutable f_pairs : int;
  mutable f_br : int;
  mutable f_bw : int;
}

(* Collapse a frame tree to per-name totals; Frames already merges
   same-name siblings, this additionally merges across tree positions
   (e.g. type(author) under two different closests). *)
let flatten frames =
  let tbl = Hashtbl.create 32 in
  let rec go (fr : Frames.frame) =
    let f =
      match Hashtbl.find_opt tbl fr.Frames.name with
      | Some f -> f
      | None ->
          let f =
            { f_calls = 0; f_wall = 0.0; f_self = 0.0; f_in = 0; f_out = 0;
              f_pairs = 0; f_br = 0; f_bw = 0 }
          in
          Hashtbl.add tbl fr.Frames.name f;
          f
    in
    f.f_calls <- f.f_calls + fr.Frames.calls;
    f.f_wall <- f.f_wall +. fr.Frames.total_us;
    f.f_self <- f.f_self +. Frames.self_us fr;
    f.f_in <- f.f_in + fr.Frames.in_count;
    f.f_out <- f.f_out + fr.Frames.out_count;
    f.f_pairs <- f.f_pairs + fr.Frames.pairs;
    f.f_br <- f.f_br + fr.Frames.blocks_read;
    f.f_bw <- f.f_bw + fr.Frames.blocks_written;
    List.iter go fr.Frames.children
  in
  List.iter go frames;
  tbl

let fold_prediction s total observed =
  s.pred_lo <- s.pred_lo + total.Xmutil.Card.lo;
  (match total.Xmutil.Card.hi with
  | Xmutil.Card.Many -> s.pred_hi <- -1
  | Xmutil.Card.Bounded m -> if s.pred_hi >= 0 then s.pred_hi <- s.pred_hi + m);
  s.observed <- s.observed + observed;
  let q = Xmutil.Card.qerror total observed in
  s.qerr_sum <- s.qerr_sum +. q;
  if q > s.qerr_max then s.qerr_max <- q;
  s.qerr_n <- s.qerr_n + 1;
  q

let record t ~guard_hash ?(predictions = []) ?metrics frames =
  let flat = flatten frames in
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  t.dirty <- true;
  Hashtbl.iter
    (fun op f ->
      let s = find_row_unlocked t guard_hash op in
      add_frame_totals s ~calls:f.f_calls ~wall:f.f_wall ~self:f.f_self
        ~in_nodes:f.f_in ~out_nodes:f.f_out ~pairs:f.f_pairs ~br:f.f_br
        ~bw:f.f_bw;
      Option.iter
        (fun r ->
          Metrics.observe_labeled ~r "xmorph_operator_seconds" [ ("op", op) ]
            (f.f_self *. 1e-6))
        metrics)
    flat;
  List.iter
    (fun (op, card, parents) ->
      match Hashtbl.find_opt flat op with
      | None -> () (* the operator did not run this execution *)
      | Some f ->
          let s = find_row_unlocked t guard_hash op in
          let q = fold_prediction s (Xmutil.Card.scale card parents) f.f_pairs in
          Option.iter
            (fun r ->
              Metrics.observe_labeled ~r "xmorph_card_qerror" [ ("op", op) ] q)
            metrics)
    predictions

let merge ~into src =
  Mutex.lock src.lock;
  let rows = Hashtbl.fold (fun _ s acc -> s :: acc) src.tbl [] in
  Mutex.unlock src.lock;
  Mutex.lock into.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock into.lock) @@ fun () ->
  into.dirty <- true;
  List.iter
    (fun (s : summary) ->
      let d = find_row_unlocked into s.s_guard s.s_op in
      d.calls <- d.calls + s.calls;
      d.wall_us <- d.wall_us +. s.wall_us;
      d.self_us <- d.self_us +. s.self_us;
      d.in_nodes <- d.in_nodes + s.in_nodes;
      d.out_nodes <- d.out_nodes + s.out_nodes;
      d.pairs <- d.pairs + s.pairs;
      d.blocks_read <- d.blocks_read + s.blocks_read;
      d.blocks_written <- d.blocks_written + s.blocks_written;
      List.iter (fun (i, c) -> add_latency d i c) s.latency;
      d.pred_lo <- d.pred_lo + s.pred_lo;
      if s.pred_hi < 0 then d.pred_hi <- -1
      else if d.pred_hi >= 0 then d.pred_hi <- d.pred_hi + s.pred_hi;
      d.observed <- d.observed + s.observed;
      d.qerr_sum <- d.qerr_sum +. s.qerr_sum;
      if s.qerr_max > d.qerr_max then d.qerr_max <- s.qerr_max;
      d.qerr_n <- d.qerr_n + s.qerr_n)
    rows

let find t ~guard_hash ~op =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.tbl (guard_hash, op) in
  Mutex.unlock t.lock;
  r

let rows t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl [] in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match String.compare a.s_guard b.s_guard with
      | 0 -> String.compare a.s_op b.s_op
      | c -> c)
    l

(* Rows stay in [rows]'s (guard, op) order: deterministic across runs, so
   surfaces built on it (explain's history section) can be test-pinned —
   timings would make a sort-by-cost order flap. *)
let guard_ops t ~guard_hash =
  List.filter (fun s -> String.equal s.s_guard guard_hash) (rows t)

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

(* ---------- JSON ---------- *)

let version = 1

let summary_to_json s =
  Xmutil.Json.Obj
    [ ("guard", Xmutil.Json.String s.s_guard);
      ("op", Xmutil.Json.String s.s_op);
      ("calls", Xmutil.Json.Int s.calls);
      ("wall_us", Xmutil.Json.Float s.wall_us);
      ("self_us", Xmutil.Json.Float s.self_us);
      ("in_nodes", Xmutil.Json.Int s.in_nodes);
      ("out_nodes", Xmutil.Json.Int s.out_nodes);
      ("pairs", Xmutil.Json.Int s.pairs);
      ("blocks_read", Xmutil.Json.Int s.blocks_read);
      ("blocks_written", Xmutil.Json.Int s.blocks_written);
      ("latency",
       Xmutil.Json.List
         (List.map
            (fun (i, c) ->
              Xmutil.Json.List [ Xmutil.Json.Int i; Xmutil.Json.Int c ])
            s.latency));
      ("pred_lo", Xmutil.Json.Int s.pred_lo);
      ("pred_hi", Xmutil.Json.Int s.pred_hi);
      ("observed", Xmutil.Json.Int s.observed);
      ("qerr_sum", Xmutil.Json.Float s.qerr_sum);
      ("qerr_max", Xmutil.Json.Float s.qerr_max);
      ("qerr_n", Xmutil.Json.Int s.qerr_n) ]

let to_json t =
  Xmutil.Json.Obj
    [ ("xmorph_statdb", Xmutil.Json.Int version);
      ("records", Xmutil.Json.List (List.map summary_to_json (rows t))) ]

module J = Xmutil.Json

let summary_of_json j =
  let f = J.fields ~what:"statdb" j in
  let s = fresh (J.string_field f "guard") (J.string_field f "op") in
  s.calls <- J.int_field f "calls";
  s.wall_us <- J.float_field f "wall_us";
  s.self_us <- J.float_field f "self_us";
  s.in_nodes <- J.int_field f "in_nodes";
  s.out_nodes <- J.int_field f "out_nodes";
  s.pairs <- J.int_field f "pairs";
  s.blocks_read <- J.int_field f "blocks_read";
  s.blocks_written <- J.int_field f "blocks_written";
  List.iter
    (fun b ->
      match List.map (fun x -> J.int_at x []) (J.list_at b []) with
      | [ Some i; Some c ] -> add_latency s i c
      | _ -> failwith "statdb: bad latency bucket")
    (J.list_field f "latency");
  s.pred_lo <- J.int_field f "pred_lo";
  s.pred_hi <- J.int_field f "pred_hi";
  s.observed <- J.int_field f "observed";
  s.qerr_sum <- J.float_field f "qerr_sum";
  s.qerr_max <- J.float_field f "qerr_max";
  s.qerr_n <- J.int_field f "qerr_n";
  s

let of_json_file file j =
  let f = J.fields ~what:"statdb" j in
  (match J.path j [ "xmorph_statdb" ] with
  | Some (J.Int v) when v = version -> ()
  | Some (J.Int v) -> failwith (Printf.sprintf "statdb: unsupported version %d" v)
  | _ -> failwith "statdb: not a stats-db file");
  let t = make file in
  List.iter
    (fun j ->
      let s = summary_of_json j in
      Hashtbl.replace t.tbl (s.s_guard, s.s_op) s)
    (J.list_field f "records");
  t

let of_json = of_json_file None

(* ---------- persistence ---------- *)

let load p =
  if not (Sys.file_exists p) then make (Some p)
  else
    match of_json_file (Some p) (J.read_file p) with
    | t -> t
    | exception e ->
        let why =
          match e with
          | J.Parse_error { pos; msg } -> J.error_message ~pos ~msg
          | Failure m | Sys_error m -> m
          | e -> Printexc.to_string e
        in
        Printf.eprintf
          "xmorph: warning: stats db %s unreadable (%s); starting empty\n%!" p
          why;
        make (Some p)

let save t p = J.write_file p (to_json t)

let path t = t.file

(* Save to the file [load] read, when anything was recorded since the
   last flush.  A failed write warns and keeps the rows in memory: the
   warehouse is telemetry, and the query path must not go down with it. *)
let flush t =
  match t.file with
  | None -> ()
  | Some p -> (
      Mutex.lock t.lock;
      let dirty = t.dirty in
      t.dirty <- false;
      Mutex.unlock t.lock;
      if dirty then
        try save t p
        with Sys_error m ->
          Printf.eprintf "xmorph: warning: cannot save stats db: %s\n%!" m)
