open Xmutil

type node = {
  id : int;
  dewey : Dewey.t;
  kind : Xml.Doc.kind;
  name : string;
  type_id : Xml.Type_table.id;
  parent : int;
  value : string;
}

module Int_map = Map.Make (Int)

type t = {
  parent : int array;
  type_id : Xml.Type_table.id array;
  rank : int array;
  own : string array;
      (* The Nodes table's columns, by node id; [shred] shares the
         document's own arrays, which nothing writes.  [own] holds the
         values the store was built with.  A node's Dewey number is
         derived from [parent] and [rank] where it is printed or saved
         ([Dewey.of_ranks]); the join reads [parent] alone. *)
  sizes : int array;
      (* node id -> encoded size of the node's record in the Nodes blob
         [save] writes: a read of the record is charged this much. *)
  values : (string * int) Int_map.t;
      (* Value overlay: node id -> the value written since the store was
         built and the record's encoded size with it.  The columns above
         are shared by every store value derived by [update_values]; [save]
         folds the overlay in. *)
  patched : string;
      (* One bit per node, set iff [values] holds the node: reads test it
         before touching the map.  Copied on each write, never mutated. *)
  data_bytes : int; (* size of the Nodes blob with the overlay folded in *)
  seqs : int array array; (* type id -> node ids, document order *)
  seq_bytes : int array; (* serialized size of each sequence row *)
  dewey_col_bytes : int array;
      (* serialized size of each type's Dewey column, the sidecar [save]
         writes: what a join-side read of the type is charged *)
  guide : Xml.Dataguide.t;
  stats : Io_stats.t;
  groups : (int, Closest.runs) Hashtbl.t;
      (* GroupedSequence cache: [level * ntypes + type] -> runs of the
         sequence sharing their ancestor at that level, for the store's
         [ntypes] types ([Array.length seqs]).  Int keys, so a lookup
         allocates nothing and an entry keeps no tuple. *)
  levels : (int, int) Hashtbl.t;
      (* closest-join levels: [min a b * ntypes + max a b] -> level *)
  lock : Mutex.t;
      (* guards [groups] and [levels]: the daemon's request threads read
         one store concurrently, and every store value derived by
         [update_values] shares the tables *)
  generation : int;
      (* Identity of this store *value*.  Drawn from a process-global
         counter, so any two store values in a process — including the
         two sides of an [update_values] — always compare unequal. *)
  origin : int;
      (* The generation [shred] or [load] minted, inherited unchanged by
         every store value derived from it. *)
  stamps : string;
      (* type id -> the generation of the last call that wrote a value of
         the type, [origin] until one does: eight bytes per type ([stamp]),
         so a write copies them in one block.  Copied on each write, never
         mutated. *)
}

(* Process-global, so generations are unique across every store in the
   process (update_values is functional: a naive per-store increment
   would let two divergent branches share a number). *)
let generations = Atomic.make 0

let next_generation () = Atomic.fetch_and_add generations 1

let stamp stamps ty = Int64.to_int (String.get_int64_ne stamps (8 * ty))
let set_stamp stamps ty g = Bytes.set_int64_ne stamps (8 * ty) (Int64.of_int g)

(* Encoded size of a string field of [n] bytes, as [Codec.add_string]
   writes it. *)
let string_size n = Codec.uint_size n + n

(* A record's kind, name and type fields, which depend on its type alone,
   as [save] writes them. *)
let type_fields types ty =
  let b = Buffer.create 16 in
  Buffer.add_char b (if Xml.Type_table.is_attribute types ty then 'A' else 'E');
  Codec.add_string b (Xml.Type_table.label types ty);
  Codec.add_uint b ty;
  Buffer.contents b

let make ~parent ~type_id ~rank ~own ~sizes ~data_bytes ~seqs ~seq_bytes ~dewey_col_bytes
    ~guide =
  let generation = next_generation () in
  let stamps = Bytes.create (8 * Array.length seqs) in
  Array.iteri (fun ty _ -> set_stamp stamps ty generation) seqs;
  { parent; type_id; rank; own; sizes; values = Int_map.empty;
    patched = String.make ((Array.length sizes + 7) / 8) '\000'; data_bytes; seqs;
    seq_bytes; dewey_col_bytes; guide; stats = Io_stats.create ();
    groups = Hashtbl.create 16; levels = Hashtbl.create 16; lock = Mutex.create ();
    generation; origin = generation; stamps = Bytes.unsafe_to_string stamps }

let shred ?ctx doc =
  let count = Xml.Doc.node_count doc in
  Xmobs.Ctx.region ctx Xmobs.Layer.store_shred ~attrs:[ ("nodes", Xmobs.Trace.Int count) ]
  @@ fun () ->
  let types = Xml.Doc.types doc in
  let seqs = Array.init (Xml.Type_table.count types) (Xml.Doc.nodes_of_type doc) in
  (* The size of [type_fields], without building them. *)
  let type_bytes =
    Array.init (Array.length seqs) (fun ty ->
        1 + string_size (String.length (Xml.Type_table.label types ty)) + Codec.uint_size ty)
  in
  let parent = Xml.Doc.parent_column doc and type_id = Xml.Doc.type_column doc in
  let rank = Xml.Doc.rank_column doc and own = Xml.Doc.value_column doc in
  (* One pass sizes every record, sequence row and Dewey column. *)
  let seq_bytes = Array.map (fun seq -> Codec.uint_size (Array.length seq)) seqs in
  let dewey_col_bytes = Array.copy seq_bytes in
  let sizes = Array.make count 0 in
  let data_bytes = ref 0 in
  (* Ids are preorder ranks, so a node's parent is the last node seen one
     level up: [prefix.(l)] is the size of the components of the Dewey
     number of the last node seen at level [l], one addition per node.
     Every instance of a type sits at the type's depth. *)
  let depths = Array.init (Array.length seqs) (Xml.Type_table.depth types) in
  let prefix = Array.make (Array.fold_left max 0 depths + 1) 0 in
  for i = 0 to count - 1 do
    let ty = type_id.(i) and len = String.length own.(i) in
    let level = depths.(ty) in
    prefix.(level) <- prefix.(level - 1) + Codec.int_size rank.(i);
    let dewey_size = Codec.uint_size level + prefix.(level) in
    seq_bytes.(ty) <- seq_bytes.(ty) + Codec.int_size i;
    dewey_col_bytes.(ty) <- dewey_col_bytes.(ty) + dewey_size;
    let size = dewey_size + type_bytes.(ty) + Codec.int_size parent.(i) + string_size len in
    sizes.(i) <- size;
    data_bytes := !data_bytes + size
  done;
  make ~parent ~type_id ~rank ~own ~sizes ~data_bytes:!data_bytes ~seqs ~seq_bytes
    ~dewey_col_bytes ~guide:(Xml.Dataguide.of_doc doc)

let stats t = t.stats
let generation t = t.generation
let guide t = t.guide
let types t = Xml.Dataguide.types t.guide
let node_count t = Array.length t.sizes
let data_bytes t = t.data_bytes

let is_patched patched i =
  Char.code patched.[i lsr 3] land (1 lsl (i land 7)) <> 0

(* A written value, charged at its record's size once folded into the
   blob.  Kept out of line so the common path through [value] stays
   small. *)
let[@inline never] patched_value ?ctx t i =
  let v, size = Int_map.find i t.values in
  Io_stats.charge_read ?ctx t.stats size;
  v

(* A column read, charged at the size of the node's whole record, as the
   paper's record store would read it. *)
let value ?ctx t i =
  if is_patched t.patched i then patched_value ?ctx t i
  else begin
    Io_stats.charge_read ?ctx t.stats t.sizes.(i);
    t.own.(i)
  end

let dewey t i = Dewey.of_ranks ~parent:t.parent ~rank:t.rank i

let node t i =
  let types = types t and ty = t.type_id.(i) in
  { id = i; dewey = dewey t i;
    kind =
      (if Xml.Type_table.is_attribute types ty then Xml.Doc.Attribute else Xml.Doc.Element);
    name = Xml.Type_table.label types ty; type_id = ty; parent = t.parent.(i);
    value = value t i }

let parent_column t = t.parent

let known t ty = ty >= 0 && ty < Array.length t.seqs

let generation_of t types =
  Array.fold_left
    (fun g ty -> if known t ty then Int.max g (stamp t.stamps ty) else g)
    t.origin types

let charge_join_column ?ctx t ty =
  if known t ty then Io_stats.charge_read ?ctx t.stats t.dewey_col_bytes.(ty)

(* A type's sequence row, uncharged. *)
let row t ty = if known t ty then t.seqs.(ty) else [||]

(* A type outside the table has no runs, and is not cached: its key
   would name a known type's entry. *)
let grouped_sequence ?ctx t ty ~level =
  if not (known t ty && level >= 0) then Closest.no_runs
  else begin
    let key = (level * Array.length t.seqs) + ty in
    Mutex.lock t.lock;
    match Hashtbl.find t.groups key with
    | g ->
        Mutex.unlock t.lock;
        g
    | exception Not_found ->
        let g =
          Closest.runs ~parent:t.parent
            ~hops:(Xml.Type_table.depth (types t) ty - level) t.seqs.(ty)
        in
        Hashtbl.replace t.groups key g;
        Mutex.unlock t.lock;
        (* Building the runs is charged as a read of the type's Dewey
           column, the access path the paper's store would take. *)
        charge_join_column ?ctx t ty;
        g
  end

(* When one type is an ancestor-or-self of the other and the descendant
   has instances, each of those has an instance of the ancestor among its
   ancestors, so the level is the ancestor's depth; otherwise one merge
   pass over the two rows finds it. *)
let compute_level t a b =
  let tt = types t and ra = row t a and rb = row t b in
  (* [anc] is an ancestor-or-self of [desc], which has instances. *)
  let above anc desc descs =
    Array.length descs > 0 && anc >= 0 && anc < Xml.Type_table.count tt
    && Xml.Type_table.lca_depth tt anc desc = Xml.Type_table.depth tt anc
  in
  if above a b rb then Xml.Type_table.depth tt a
  else if above b a ra then Xml.Type_table.depth tt b
  else if Array.length ra = 0 || Array.length rb = 0 then 0
  else
    Closest.level ~parent:t.parent ra ~depth_a:(Xml.Type_table.depth tt a) rb
      ~depth_b:(Xml.Type_table.depth tt b)

(* A pair with a type outside the table is computed and not cached, as
   [grouped_sequence]'s unknown types are not. *)
let join_level t a b =
  if not (known t a && known t b) then compute_level t a b
  else begin
    let key = (Int.min a b * Array.length t.seqs) + Int.max a b in
    Mutex.lock t.lock;
    let l =
      match Hashtbl.find t.levels key with
      | l -> l
      | exception Not_found ->
          let l = compute_level t a b in
          Hashtbl.replace t.levels key l;
          l
    in
    Mutex.unlock t.lock;
    l
  end

let sequence ?ctx t ty =
  if ty < 0 || ty >= Array.length t.seqs then [||]
  else begin
    Io_stats.charge_read ?ctx t.stats t.seq_bytes.(ty);
    t.seqs.(ty)
  end

let update_values ?ctx t updates =
  let count = node_count t in
  (* Every id is checked before any effect; the last write to an id wins. *)
  let batch =
    List.fold_left
      (fun batch (id, value) ->
        if id < 0 || id >= count then invalid_arg "Shredded.update_values";
        Int_map.add id value batch)
      Int_map.empty updates
  in
  let patched = Bytes.of_string t.patched in
  let generation = next_generation () and stamps = Bytes.of_string t.stamps in
  let values, data_bytes =
    Int_map.fold
      (fun id value (values, data_bytes) ->
        let old_size =
          match Int_map.find_opt id t.values with Some (_, s) -> s | None -> t.sizes.(id)
        in
        let size =
          t.sizes.(id) - string_size (String.length t.own.(id))
          + string_size (String.length value)
        in
        Io_stats.charge_write ?ctx t.stats size;
        let byte = Char.code (Bytes.get patched (id lsr 3)) in
        Bytes.set patched (id lsr 3) (Char.chr (byte lor (1 lsl (id land 7))));
        set_stamp stamps t.type_id.(id) generation;
        (Int_map.add id (value, size) values, data_bytes + size - old_size))
      batch (t.values, t.data_bytes)
  in
  (* Values play no part in the structure, so the returned store shares
     the parent and rank columns, the grouped-run cache and the join
     levels, lock included, with [t]. *)
  { t with values; patched = Bytes.unsafe_to_string patched; data_bytes; generation;
    stamps = Bytes.unsafe_to_string stamps }

let update_value t id value = update_values t [ (id, value) ]

let magic = "XMORPH-STORE-2\n"

(* The part of the magic every format version shares. *)
let magic_prefix = "XMORPH-STORE-"

let is_store path =
  In_channel.with_open_bin path (fun ic ->
      In_channel.really_input_string ic (String.length magic_prefix) = Some magic_prefix)

let save ?ctx t path =
  Xmobs.Ctx.region ctx Xmobs.Layer.store_save @@ fun () ->
  let b = Buffer.create (t.data_bytes + 1024) in
  Buffer.add_string b magic;
  (* Type table, in id order so re-interning reproduces the ids. *)
  let tt = types t in
  Codec.add_uint b (Xml.Type_table.count tt);
  Xml.Type_table.iter tt (fun ty ->
      Codec.add_int b (match Xml.Type_table.parent tt ty with None -> -1 | Some p -> p);
      Codec.add_string b (Xml.Type_table.component tt ty));
  (* Adorned shape. *)
  Codec.add_int_array b (Array.of_list (Xml.Dataguide.roots t.guide));
  Xml.Type_table.iter tt (fun ty ->
      let card = Xml.Dataguide.card t.guide ty in
      Codec.add_uint b card.Card.lo;
      Codec.add_int b (match card.Card.hi with Card.Many -> -1 | Card.Bounded m -> m);
      Codec.add_uint b (Xml.Dataguide.instance_count t.guide ty));
  (* Sequences. *)
  Array.iter (Codec.add_int_array b) t.seqs;
  (* Columnar Dewey sidecar, derived from the rank and parent columns. *)
  Array.iter
    (fun seq ->
      Codec.add_uint b (Array.length seq);
      Array.iter (fun id -> Codec.add_int_array b (dewey t id)) seq)
    t.seqs;
  (* Nodes table: each record's offset, then the records back to back,
     written with the current values. *)
  let count = node_count t in
  let overlaid i = if is_patched t.patched i then Int_map.find_opt i t.values else None in
  Codec.add_uint b count;
  Codec.add_uint b count;
  let offset = ref 0 in
  for i = 0 to count - 1 do
    Codec.add_int b !offset;
    offset := !offset + match overlaid i with Some (_, size) -> size | None -> t.sizes.(i)
  done;
  let fields = Array.init (Xml.Type_table.count tt) (type_fields tt) in
  Codec.add_uint b t.data_bytes;
  for i = 0 to count - 1 do
    Codec.add_int_array b (dewey t i);
    Buffer.add_string b fields.(t.type_id.(i));
    Codec.add_int b t.parent.(i);
    Codec.add_string b (match overlaid i with Some (v, _) -> v | None -> t.own.(i))
  done;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

let load ?ctx path =
  Xmobs.Ctx.region ctx Xmobs.Layer.store_load @@ fun () ->
  let data = In_channel.with_open_bin path In_channel.input_all in
  if not (String.starts_with ~prefix:magic data) then raise (Codec.Corrupt "bad magic");
  let c = Codec.cursor ~pos:(String.length magic) data in
  let tt = Xml.Type_table.create () in
  let ntypes = Codec.read_uint c in
  for _ = 1 to ntypes do
    let p = Codec.read_int c in
    let comp = Codec.read_string c in
    ignore (Xml.Type_table.intern tt ~parent:(if p = -1 then None else Some p) comp)
  done;
  let roots = Array.to_list (Codec.read_int_array c) in
  let cards = Array.make ntypes Card.one in
  let counts = Array.make ntypes 0 in
  for ty = 0 to ntypes - 1 do
    let lo = Codec.read_uint c in
    let hi = Codec.read_int c in
    cards.(ty) <- { Card.lo; hi = (if hi = -1 then Card.Many else Card.Bounded hi) };
    counts.(ty) <- Codec.read_uint c
  done;
  let guide = Xml.Dataguide.make ~types:tt ~roots ~cards ~counts in
  let seqs = Array.init ntypes (fun _ -> Codec.read_int_array c) in
  (* The Dewey sidecar is checked against the records once they are
     decoded: here only its shape. *)
  let sidecar = c.pos in
  Array.iter
    (fun seq ->
      if Codec.read_uint c <> Array.length seq then
        raise (Codec.Corrupt "dewey column size");
      Array.iter (fun _ -> ignore (Codec.read_int_array c)) seq)
    seqs;
  let nnodes = Codec.read_uint c in
  let offsets = Codec.read_int_array c in
  if Array.length offsets <> nnodes then raise (Codec.Corrupt "offset table size");
  let blob = Codec.read_string c in
  (* Every record is decoded into the columns once, and refused unless it
     is what [save] writes: at its offset, with its type's kind and name,
     with a type and parent that exist, and in preorder: a node's parent
     is the last node seen one level up, an instance of its type's parent
     type.  Its rank is then the count of its earlier siblings, plus one,
     and its Dewey number must be the one the parent and rank columns
     give. *)
  let corrupt what = raise (Codec.Corrupt ("bad node " ^ what)) in
  let c = Codec.cursor blob in
  let depths = Array.init ntypes (Xml.Type_table.depth tt) in
  let max_depth = Array.fold_left max 0 depths in
  (* [last.(l)]: the last node seen at level [l]; [next_rank.(l)]: the
     rank the next node at level [l] takes. *)
  let last = Array.make (max_depth + 1) (-1) and next_rank = Array.make (max_depth + 2) 1 in
  let parent = Array.make nnodes (-1) and type_id = Array.make nnodes 0 in
  let rank = Array.make nnodes 0 and sizes = Array.make nnodes 0 in
  let is_derived (d : Dewey.t) i =
    let rec from j k = k < 0 || (d.(k) = rank.(j) && from parent.(j) (k - 1)) in
    Array.length d = depths.(type_id.(i)) && from i (Array.length d - 1)
  in
  (* Records whose Dewey number is not the derived one, kept to check the
     sidecar against what the record holds. *)
  let misnumbered = Hashtbl.create 0 in
  let dewey_col_bytes = Array.map (fun seq -> Codec.uint_size (Array.length seq)) seqs in
  let own = Array.make nnodes "" in
  for i = 0 to nnodes - 1 do
    if offsets.(i) <> c.pos then corrupt "offset";
    let d = Codec.read_int_array c in
    let dewey_size = c.pos - offsets.(i) in
    let kind = if c.pos < String.length blob then blob.[c.pos] else '\000' in
    c.pos <- c.pos + 1;
    let name = Codec.read_string c in
    let ty = Codec.read_uint c in
    if ty < 0 || ty >= ntypes then corrupt "type";
    if kind <> (if Xml.Type_table.is_attribute tt ty then 'A' else 'E') then corrupt "kind";
    if name <> Xml.Type_table.label tt ty then corrupt "name";
    type_id.(i) <- ty;
    let p = Codec.read_int c in
    if p < -1 || p >= nnodes then corrupt "parent";
    let level = depths.(ty) in
    if p <> last.(level - 1)
       || (match Xml.Type_table.parent tt ty with
           | None -> false
           | Some pty -> p < 0 || type_id.(p) <> pty)
    then corrupt "parent";
    parent.(i) <- p;
    last.(level) <- i;
    rank.(i) <- next_rank.(level);
    next_rank.(level) <- next_rank.(level) + 1;
    next_rank.(level + 1) <- 1;
    if not (is_derived d i) then Hashtbl.replace misnumbered i d;
    dewey_col_bytes.(ty) <- dewey_col_bytes.(ty) + dewey_size;
    own.(i) <- Codec.read_string c;
    sizes.(i) <- c.pos - offsets.(i)
  done;
  if c.pos <> String.length blob then corrupt "offset";
  (* The TypeToSequence rows and the Dewey sidecar must agree with the
     records: the rows partition the nodes by type in id order, and each
     sidecar entry is its node's Dewey number as the record holds it. *)
  let bad_sequence () = raise (Codec.Corrupt "bad sequence") in
  if Array.fold_left (fun n seq -> n + Array.length seq) 0 seqs <> nnodes then
    bad_sequence ();
  let c = Codec.cursor ~pos:sidecar data in
  Array.iteri
    (fun ty seq ->
      ignore (Codec.read_uint c);
      Array.iteri
        (fun j id ->
          if id < 0 || id >= nnodes || type_id.(id) <> ty || (j > 0 && id <= seq.(j - 1))
          then bad_sequence ();
          let d = Codec.read_int_array c in
          match Hashtbl.find_opt misnumbered id with
          | Some held -> if not (Dewey.equal d held) then bad_sequence ()
          | None -> if not (is_derived d id) then bad_sequence ())
        seq)
    seqs;
  if Hashtbl.length misnumbered > 0 then corrupt "dewey";
  make ~parent ~type_id ~rank ~own ~sizes
    ~data_bytes:(String.length blob) ~seqs ~seq_bytes:(Array.map Codec.int_array_size seqs)
    ~dewey_col_bytes ~guide
