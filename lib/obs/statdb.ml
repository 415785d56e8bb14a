(* The operator-statistics warehouse.

   Layout: a hash table keyed by (guard_hash, op_name) holding mutable
   summary rows.  Recording flattens a Profile tree — frames merged by
   name, so a render with fifty activations of closest(a->b) lands in one
   row with calls=50 — and folds predicted closest-join cardinalities
   against the pairs the frames actually produced.

   Persistence is deliberately boring: one pretty-printed JSON document,
   written atomically (temp + rename) and re-merged on load.  Corruption
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

   Quarter-octave log scale over per-call self microseconds: bucket
   [mid + 4*log2 us], clamped.  mid=32 spans ~2^-8 us .. ~2^24 us, i.e.
   nanoseconds to ~16 s — wider than any operator self time we record. *)

let buckets = 128
let bucket_mid = 32
let bucket_scale = 4.0

let bucket_of_us us =
  if us <= 0.0 then 0
  else
    let i =
      bucket_mid + int_of_float (Float.round (bucket_scale *. Float.log2 us))
    in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i

let bucket_value_us i =
  Float.exp2 (float_of_int (i - bucket_mid) /. bucket_scale)

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

(* Collapse a frame tree to per-name totals; Profile already merges
   same-name siblings, this additionally merges across tree positions
   (e.g. type(author) under two different closests). *)
let flatten frames =
  let tbl = Hashtbl.create 32 in
  let rec go (fr : Profile.frame) =
    let f =
      match Hashtbl.find_opt tbl fr.Profile.name with
      | Some f -> f
      | None ->
          let f =
            { f_calls = 0; f_wall = 0.0; f_self = 0.0; f_in = 0; f_out = 0;
              f_pairs = 0; f_br = 0; f_bw = 0 }
          in
          Hashtbl.add tbl fr.Profile.name f;
          f
    in
    f.f_calls <- f.f_calls + fr.Profile.calls;
    f.f_wall <- f.f_wall +. fr.Profile.total_us;
    f.f_self <- f.f_self +. Profile.self_us fr;
    f.f_in <- f.f_in + fr.Profile.in_count;
    f.f_out <- f.f_out + fr.Profile.out_count;
    f.f_pairs <- f.f_pairs + fr.Profile.pairs;
    f.f_br <- f.f_br + fr.Profile.blocks_read;
    f.f_bw <- f.f_bw + fr.Profile.blocks_written;
    List.iter go fr.Profile.children
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

let record t ~guard_hash ?(predictions = []) frames =
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
      if Metrics.is_enabled () then
        Metrics.observe_labeled "xmorph_operator_seconds" [ ("op", op) ]
          (f.f_self *. 1e-6))
    flat;
  List.iter
    (fun (op, card, parents) ->
      match Hashtbl.find_opt flat op with
      | None -> () (* the operator did not run this execution *)
      | Some f ->
          let s = find_row_unlocked t guard_hash op in
          let q = fold_prediction s (Xmutil.Card.scale card parents) f.f_pairs in
          if Metrics.is_enabled () then
            Metrics.observe_labeled "xmorph_card_qerror" [ ("op", op) ] q)
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

let jint = function
  | Xmutil.Json.Int i -> i
  | Xmutil.Json.Float f -> int_of_float f
  | _ -> failwith "statdb: expected number"

let jfloat = function
  | Xmutil.Json.Float f -> f
  | Xmutil.Json.Int i -> float_of_int i
  | _ -> failwith "statdb: expected number"

let jstring = function
  | Xmutil.Json.String s -> s
  | _ -> failwith "statdb: expected string"

let field fields name = List.assoc_opt name fields

let req fields name =
  match field fields name with
  | Some v -> v
  | None -> failwith ("statdb: missing field " ^ name)

let summary_of_json = function
  | Xmutil.Json.Obj fields ->
      let s = fresh (jstring (req fields "guard")) (jstring (req fields "op")) in
      s.calls <- jint (req fields "calls");
      s.wall_us <- jfloat (req fields "wall_us");
      s.self_us <- jfloat (req fields "self_us");
      s.in_nodes <- jint (req fields "in_nodes");
      s.out_nodes <- jint (req fields "out_nodes");
      s.pairs <- jint (req fields "pairs");
      s.blocks_read <- jint (req fields "blocks_read");
      s.blocks_written <- jint (req fields "blocks_written");
      (match req fields "latency" with
      | Xmutil.Json.List l ->
          List.iter
            (function
              | Xmutil.Json.List [ i; c ] -> add_latency s (jint i) (jint c)
              | _ -> failwith "statdb: bad latency bucket")
            l
      | _ -> failwith "statdb: bad latency list");
      s.pred_lo <- jint (req fields "pred_lo");
      s.pred_hi <- jint (req fields "pred_hi");
      s.observed <- jint (req fields "observed");
      s.qerr_sum <- jfloat (req fields "qerr_sum");
      s.qerr_max <- jfloat (req fields "qerr_max");
      s.qerr_n <- jint (req fields "qerr_n");
      s
  | _ -> failwith "statdb: record is not an object"

let of_json_file file = function
  | Xmutil.Json.Obj fields ->
      (match field fields "xmorph_statdb" with
      | Some (Xmutil.Json.Int v) when v = version -> ()
      | Some (Xmutil.Json.Int v) ->
          failwith (Printf.sprintf "statdb: unsupported version %d" v)
      | _ -> failwith "statdb: not a stats-db file");
      let t = make file in
      (match req fields "records" with
      | Xmutil.Json.List l ->
          List.iter
            (fun j ->
              let s = summary_of_json j in
              Hashtbl.replace t.tbl (s.s_guard, s.s_op) s)
            l
      | _ -> failwith "statdb: bad records list");
      t
  | _ -> failwith "statdb: not a JSON object"

let of_json = of_json_file None

(* ---------- persistence ---------- *)

let load p =
  if not (Sys.file_exists p) then make (Some p)
  else
    match
      let ic = open_in_bin p in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      of_json_file (Some p) (Xmutil.Json.of_string text)
    with
    | t -> t
    | exception e ->
        let why =
          match e with
          | Xmutil.Json.Parse_error { pos; msg } ->
              Printf.sprintf "JSON error at %d: %s" pos msg
          | Failure m -> m
          | Sys_error m -> m
          | e -> Printexc.to_string e
        in
        Printf.eprintf
          "xmorph: warning: stats db %s unreadable (%s); starting empty\n%!" p
          why;
        make (Some p)

let save t p =
  let tmp = p ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Xmutil.Json.to_string ~pretty:true (to_json t));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp p

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
