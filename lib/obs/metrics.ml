(* A metrics registry: named counters, gauges, and log-scale histograms.

   There is one [global] registry plus per-run scoped registries ([create] /
   [with_registry]); the *current* registry receives all name-based updates.
   Updates only happen while metrics are enabled, so the disabled path is a
   single branch.  Hot call sites can intern a handle once ([counter],
   [gauge], [histogram]) and mutate it directly — a field write, no lookup.

   Domain-safety: counters are atomics (adds commute, totals exact under
   concurrent updates); interning and histogram updates take a lock;
   gauges stay a bare mutable float — a word-sized write that cannot
   tear, with last-write-wins semantics that are the right ones for a
   level anyway.  The enabled gate is an atomic; the current registry is
   main-domain state. *)

type counter = { count : int Atomic.t }

type gauge = { mutable level : float }

(* Log-scale buckets: [scale] buckets per octave around bucket [mid] at 1.0,
   i.e. bucket i holds values near 2^((i - mid) / scale).  With scale = 8 the
   relative quantization error is under 5 % across ~2^-32 .. 2^32. *)
let hist_buckets = 512

let hist_mid = 256

let hist_scale = 8.0

type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  buckets : int array;
  hlock : Mutex.t; (* one observation is several dependent writes *)
}

(* A labeled family holds one series per distinct label-value combination,
   interned under the registry lock like plain handles.  Cardinality is
   bounded: once [fam_max] series exist, new combinations collapse into a
   single overflow series whose label values are ["_other"], so a
   high-cardinality label (guard hashes, client-chosen doc names) cannot
   grow the registry without bound. *)
type 'a family = {
  fam_max : int;
  fam_series : (string, (string * string) list * 'a) Hashtbl.t;
  (* key = label names and values joined with '\x00', sorted by name *)
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  lcounters : (string, counter family) Hashtbl.t;
  lhistograms : (string, histogram family) Hashtbl.t;
  help : (string, string) Hashtbl.t;
  lock : Mutex.t; (* guards the intern tables *)
}

let create () : t =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    lcounters = Hashtbl.create 8;
    lhistograms = Hashtbl.create 8;
    help = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let global = create ()

let current = ref global

let current_registry () = !current

let enabled = Atomic.make false

let is_enabled () = Atomic.get enabled

let enable ?registry () =
  (match registry with Some r -> current := r | None -> ());
  Atomic.set enabled true

let disable () = Atomic.set enabled false

(* Run [f] with [r] as the current registry (metrics stay enabled/disabled
   as they were). *)
let with_registry r f =
  let prev = !current in
  current := r;
  Fun.protect f ~finally:(fun () -> current := prev)

let reset ?r () =
  let r = match r with Some r -> r | None -> !current in
  Mutex.lock r.lock;
  Hashtbl.reset r.counters;
  Hashtbl.reset r.gauges;
  Hashtbl.reset r.histograms;
  Hashtbl.reset r.lcounters;
  Hashtbl.reset r.lhistograms;
  Hashtbl.reset r.help;
  Mutex.unlock r.lock

(* ---------- handles ---------- *)

(* Interning takes the registry lock: two domains racing to intern the same
   name must agree on the handle, or updates through the loser's handle
   would be dropped from the table's view. *)
let intern lock tbl name make =
  Mutex.lock lock;
  let x =
    match Hashtbl.find_opt tbl name with
    | Some x -> x
    | None ->
        let x = make () in
        Hashtbl.replace tbl name x;
        x
  in
  Mutex.unlock lock;
  x

let counter ?r name =
  let r = match r with Some r -> r | None -> !current in
  intern r.lock r.counters name (fun () -> { count = Atomic.make 0 })

let gauge ?r name =
  let r = match r with Some r -> r | None -> !current in
  intern r.lock r.gauges name (fun () -> { level = 0.0 })

let histogram ?r name =
  let r = match r with Some r -> r | None -> !current in
  intern r.lock r.histograms name (fun () ->
      { n = 0; sum = 0.0; minv = infinity; maxv = neg_infinity;
        buckets = Array.make hist_buckets 0; hlock = Mutex.create () })

(* ---------- labeled families ---------- *)

let default_max_series = 64

let sort_labels ls =
  List.sort (fun (a, _) (b, _) -> String.compare a b) ls

let labels_key ls =
  String.concat "\x00" (List.concat_map (fun (k, v) -> [ k; v ]) ls)

let overflow_labels ls = List.map (fun (k, _) -> (k, "_other")) ls

(* Find-or-create the series for [ls] inside [fam]; at the cardinality cap,
   fall through to the family's overflow series instead. *)
let family_series lock fam ls make =
  let ls = sort_labels ls in
  let find_or_add ls =
    let key = labels_key ls in
    match Hashtbl.find_opt fam.fam_series key with
    | Some (_, x) -> x
    | None ->
        let x = make () in
        Hashtbl.replace fam.fam_series key (ls, x);
        x
  in
  Mutex.lock lock;
  let x =
    let key = labels_key ls in
    match Hashtbl.find_opt fam.fam_series key with
    | Some (_, x) -> x
    | None ->
        if Hashtbl.length fam.fam_series >= fam.fam_max then
          find_or_add (overflow_labels ls)
        else find_or_add ls
  in
  Mutex.unlock lock;
  x

let mk_family max_series () =
  { fam_max = (match max_series with Some m -> max 1 m | None -> default_max_series);
    fam_series = Hashtbl.create 8 }

let counter_labeled ?r ?max_series name labels =
  let r = match r with Some r -> r | None -> !current in
  let fam = intern r.lock r.lcounters name (mk_family max_series) in
  family_series r.lock fam labels (fun () -> { count = Atomic.make 0 })

let histogram_labeled ?r ?max_series name labels =
  let r = match r with Some r -> r | None -> !current in
  let fam = intern r.lock r.lhistograms name (mk_family max_series) in
  family_series r.lock fam labels (fun () ->
      { n = 0; sum = 0.0; minv = infinity; maxv = neg_infinity;
        buckets = Array.make hist_buckets 0; hlock = Mutex.create () })

(* ---------- help text ---------- *)

let set_help ?r name text =
  let r = match r with Some r -> r | None -> !current in
  Mutex.lock r.lock;
  Hashtbl.replace r.help name text;
  Mutex.unlock r.lock

(* Every family gets a HELP line; unregistered names fall back to the
   dotted name with dots spelled as spaces, which reads as a phrase. *)
let help_text r name =
  match Hashtbl.find_opt r.help name with
  | Some s -> s
  | None -> String.map (fun c -> if c = '.' then ' ' else c) name

let counter_add c by = ignore (Atomic.fetch_and_add c.count by)

let gauge_set g v = g.level <- v

let bucket_of v =
  if v <= 0.0 then 0
  else
    let i = hist_mid + int_of_float (Float.round (hist_scale *. Float.log2 v)) in
    if i < 0 then 0 else if i >= hist_buckets then hist_buckets - 1 else i

let bucket_value i = Float.pow 2.0 (float_of_int (i - hist_mid) /. hist_scale)

let hist_add h v =
  Mutex.lock h.hlock;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v;
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  Mutex.unlock h.hlock

(* ---------- name-based updates (gated on [enable]) ---------- *)

let inc ?(by = 1) name =
  if Atomic.get enabled then counter_add (counter name) by

let set_gauge name v =
  if Atomic.get enabled then gauge_set (gauge name) v

let observe name v =
  if Atomic.get enabled then hist_add (histogram name) v

(* Building the label list allocates: callers on the disabled path must
   pre-intern handles if they need zero allocation. *)
let inc_labeled ?(by = 1) name labels =
  if Atomic.get enabled then counter_add (counter_labeled name labels) by

let observe_labeled name labels v =
  if Atomic.get enabled then hist_add (histogram_labeled name labels) v

(* ---------- reads ---------- *)

let counter_value ?r name =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.counters name with
  | Some c -> Atomic.get c.count
  | None -> 0

let gauge_value ?r name =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.gauges name with Some g -> g.level | None -> 0.0

let family_bindings fam =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k (ls, x) acc -> (k, (ls, x)) :: acc) fam.fam_series [])

let counter_value_labeled ?r name labels =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.lcounters name with
  | None -> 0
  | Some fam -> (
      match Hashtbl.find_opt fam.fam_series (labels_key (sort_labels labels)) with
      | Some (_, c) -> Atomic.get c.count
      | None -> 0)

let counter_series ?r name =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.lcounters name with
  | None -> []
  | Some fam ->
      List.map (fun (_, (ls, c)) -> (ls, Atomic.get c.count)) (family_bindings fam)

let histogram_series ?r name =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.lhistograms name with
  | None -> []
  | Some fam ->
      List.map
        (fun (_, (ls, h)) ->
          Mutex.lock h.hlock;
          let n = h.n and sum = h.sum in
          Mutex.unlock h.hlock;
          (ls, (n, sum)))
        (family_bindings fam)

let hist_percentile h q =
  if h.n = 0 then None
  else begin
    let rank = q *. float_of_int (h.n - 1) in
    let cum = ref 0 in
    let found = ref None in
    (try
       for i = 0 to hist_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if float_of_int !cum > rank then begin
           found := Some i;
           raise Exit
         end
       done
     with Exit -> ());
    match !found with
    | None -> Some h.maxv
    | Some i -> Some (Float.min h.maxv (Float.max h.minv (bucket_value i)))
  end

let percentile ?r name q =
  let r = match r with Some r -> r | None -> !current in
  match Hashtbl.find_opt r.histograms name with
  | None -> None
  | Some h -> hist_percentile h q

(* ---------- export ---------- *)

let sorted_bindings tbl =
  (* Keys only: the values now hold atomics and mutexes, which polymorphic
     compare cannot look at. *)
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let hist_to_json h =
  let pct q = match hist_percentile h q with Some v -> v | None -> 0.0 in
  Xmutil.Json.Obj
    [ ("count", Xmutil.Json.Int h.n); ("sum", Xmutil.Json.Float h.sum);
      ("min", Xmutil.Json.Float (if h.n = 0 then 0.0 else h.minv));
      ("max", Xmutil.Json.Float (if h.n = 0 then 0.0 else h.maxv));
      ("mean", Xmutil.Json.Float (if h.n = 0 then 0.0 else h.sum /. float_of_int h.n));
      ("p50", Xmutil.Json.Float (pct 0.5)); ("p95", Xmutil.Json.Float (pct 0.95));
      ("p99", Xmutil.Json.Float (pct 0.99)) ]

let labels_to_suffix ls =
  "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let to_json ?r () =
  let r = match r with Some r -> r | None -> !current in
  let base =
    [ ("counters",
       Xmutil.Json.Obj
         (List.map (fun (k, c) -> (k, Xmutil.Json.Int (Atomic.get c.count)))
            (sorted_bindings r.counters)));
      ("gauges",
       Xmutil.Json.Obj
         (List.map (fun (k, g) -> (k, Xmutil.Json.Float g.level))
            (sorted_bindings r.gauges)));
      ("histograms",
       Xmutil.Json.Obj
         (List.map (fun (k, h) -> (k, hist_to_json h))
            (sorted_bindings r.histograms))) ]
  in
  (* Labeled families join the dump only once one exists, keeping the
     unlabeled JSON shape (pinned by tests and baselines) unchanged. *)
  let labeled =
    (if Hashtbl.length r.lcounters = 0 then []
     else
       [ ("labeled_counters",
          Xmutil.Json.Obj
            (List.map
               (fun (k, fam) ->
                 ( k,
                   Xmutil.Json.Obj
                     (List.map
                        (fun (_, (ls, c)) ->
                          (labels_to_suffix ls, Xmutil.Json.Int (Atomic.get c.count)))
                        (family_bindings fam)) ))
               (sorted_bindings r.lcounters)) ) ])
    @
    if Hashtbl.length r.lhistograms = 0 then []
    else
      [ ("labeled_histograms",
         Xmutil.Json.Obj
           (List.map
              (fun (k, fam) ->
                ( k,
                  Xmutil.Json.Obj
                    (List.map
                       (fun (_, (ls, h)) -> (labels_to_suffix ls, hist_to_json h))
                       (family_bindings fam)) ))
              (sorted_bindings r.lhistograms)) ) ]
  in
  Xmutil.Json.Obj (base @ labeled)

(* ---------- Prometheus text exposition ---------- *)

(* Metric names here are dotted ([serve.request.seconds]); Prometheus names
   admit [a-zA-Z0-9_:] with a non-digit first character, so everything
   else maps to '_'. *)
let prometheus_name name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Label values are double-quoted; the exposition format escapes exactly
   backslash, double quote, and line feed. *)
let prometheus_escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Prometheus floats.  %.12g keeps sums and timestamps exact enough while
   staying deterministic; integral values print without a fraction. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

(* The upper edge of log-scale bucket [i]: observations are rounded to the
   nearest bucket, so the boundary sits half a bucket step up. *)
let bucket_upper_edge i =
  Float.pow 2.0 ((float_of_int (i - hist_mid) +. 0.5) /. hist_scale)

(* HELP text escapes only backslash and newline (no quoting). *)
let prometheus_escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let add_header b r name kind =
  let pname = prometheus_name name in
  Buffer.add_string b
    (Printf.sprintf "# HELP %s %s\n" pname
       (prometheus_escape_help (help_text r name)));
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" pname kind)

(* Rendered label pairs without braces, e.g. [doc="x",outcome="ok"]. *)
let labels_body ls =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "%s=\"%s\"" (prometheus_name k)
           (prometheus_escape_label v))
       ls)

(* One histogram series.  [lbl] is the rendered label body ("" when
   unlabeled); bucket lines put [le] last, per convention. *)
let hist_samples b name lbl h =
  Mutex.lock h.hlock;
  let n = h.n and sum = h.sum and buckets = Array.copy h.buckets in
  Mutex.unlock h.hlock;
  let le_pre = if lbl = "" then "" else lbl ^ "," in
  let plain = if lbl = "" then "" else "{" ^ lbl ^ "}" in
  let cum = ref 0 in
  for i = 0 to hist_buckets - 1 do
    if buckets.(i) > 0 then begin
      cum := !cum + buckets.(i);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{%sle=\"%s\"} %d\n" name le_pre
           (prom_float (bucket_upper_edge i))
           !cum)
    end
  done;
  Buffer.add_string b (Printf.sprintf "%s_bucket{%sle=\"+Inf\"} %d\n" name le_pre n);
  Buffer.add_string b (Printf.sprintf "%s_sum%s %s\n" name plain (prom_float sum));
  Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" name plain n)

let to_prometheus ?r ?(info = []) () =
  let r = match r with Some r -> r | None -> !current in
  let b = Buffer.create 1024 in
  (match info with
  | [] -> ()
  | kvs ->
      Buffer.add_string b "# HELP xmorph_info build and deployment info\n";
      Buffer.add_string b "# TYPE xmorph_info gauge\n";
      Buffer.add_string b "xmorph_info{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "%s=\"%s\"" (prometheus_name k)
               (prometheus_escape_label v)))
        kvs;
      Buffer.add_string b "} 1\n");
  List.iter
    (fun (k, c) ->
      add_header b r k "counter";
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" (prometheus_name k) (Atomic.get c.count)))
    (sorted_bindings r.counters);
  List.iter
    (fun (k, fam) ->
      add_header b r k "counter";
      let name = prometheus_name k in
      List.iter
        (fun (_, (ls, c)) ->
          Buffer.add_string b
            (Printf.sprintf "%s{%s} %d\n" name (labels_body ls)
               (Atomic.get c.count)))
        (family_bindings fam))
    (sorted_bindings r.lcounters);
  List.iter
    (fun (k, g) ->
      add_header b r k "gauge";
      Buffer.add_string b
        (Printf.sprintf "%s %s\n" (prometheus_name k) (prom_float g.level)))
    (sorted_bindings r.gauges);
  List.iter
    (fun (k, h) ->
      add_header b r k "histogram";
      hist_samples b (prometheus_name k) "" h)
    (sorted_bindings r.histograms);
  List.iter
    (fun (k, fam) ->
      add_header b r k "histogram";
      let name = prometheus_name k in
      List.iter
        (fun (_, (ls, h)) -> hist_samples b name (labels_body ls) h)
        (family_bindings fam))
    (sorted_bindings r.lhistograms);
  Buffer.contents b

let to_string ?r () =
  let r = match r with Some r -> r | None -> !current in
  let b = Buffer.create 256 in
  List.iter
    (fun (k, c) ->
      Buffer.add_string b (Printf.sprintf "%-40s %d\n" k (Atomic.get c.count)))
    (sorted_bindings r.counters);
  List.iter
    (fun (k, g) -> Buffer.add_string b (Printf.sprintf "%-40s %g\n" k g.level))
    (sorted_bindings r.gauges);
  List.iter
    (fun (k, h) ->
      let pct q = match hist_percentile h q with Some v -> v | None -> 0.0 in
      Buffer.add_string b
        (Printf.sprintf "%-40s n=%d sum=%g p50=%g p95=%g p99=%g\n" k h.n h.sum
           (pct 0.5) (pct 0.95) (pct 0.99)))
    (sorted_bindings r.histograms);
  List.iter
    (fun (k, fam) ->
      List.iter
        (fun (_, (ls, c)) ->
          Buffer.add_string b
            (Printf.sprintf "%-40s %d\n"
               (k ^ labels_to_suffix ls)
               (Atomic.get c.count)))
        (family_bindings fam))
    (sorted_bindings r.lcounters);
  List.iter
    (fun (k, fam) ->
      List.iter
        (fun (_, (ls, h)) ->
          let pct q = match hist_percentile h q with Some v -> v | None -> 0.0 in
          Buffer.add_string b
            (Printf.sprintf "%-40s n=%d sum=%g p50=%g p95=%g p99=%g\n"
               (k ^ labels_to_suffix ls)
               h.n h.sum (pct 0.5) (pct 0.95) (pct 0.99)))
        (family_bindings fam))
    (sorted_bindings r.lhistograms);
  Buffer.contents b
