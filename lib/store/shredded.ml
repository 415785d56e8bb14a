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
  blob : string;
  offsets : int array; (* node id -> offset of its record in [blob] *)
  values : (node * int) Int_map.t;
      (* Value overlay: node id -> the node's record with the value written
         since [blob] was built, and the record's encoded size, so reading a
         written node decodes nothing.  [blob] and [offsets] are shared by
         every store value derived by [update_values]; [save] folds the
         overlay back in. *)
  patched : string;
      (* One bit per node, set iff [values] holds the node: [node] tests it
         before touching the map.  Copied on each write, never mutated. *)
  data_bytes : int; (* size of [blob] with the overlay folded in *)
  seqs : int array array; (* type id -> node ids, document order *)
  seq_bytes : int array; (* serialized size of each sequence row *)
  dewey_cols : Dewey.t array array;
      (* Columnar Dewey sidecar: type id -> Dewey numbers aligned with the
         type's sequence row.  Join-side code reads these columns instead of
         decoding full node records; [node] decoding is deferred to emit
         time. *)
  dewey_col_bytes : int array; (* serialized size of each Dewey column *)
  guide : Xml.Dataguide.t;
  stats : Io_stats.t;
  groups : (int * int, (int * int) array) Hashtbl.t;
      (* GroupedSequence cache: (type, level) -> runs of the sequence
         sharing a Dewey prefix of that length *)
  lock : Mutex.t; (* guards [groups]: the renderer reads from domains *)
  generation : int;
      (* Identity of this store *value* for cache keying.  Drawn from a
         process-global counter, so any two store values in a process —
         including the two sides of an [update_values] — always compare
         unequal.  Caches key on it instead of scanning for staleness. *)
}

(* Process-global, so generations are unique across every store in the
   process (update_values is functional: a naive per-store increment
   would let two divergent branches share a number). *)
let generations = Atomic.make 0

let next_generation () = Atomic.fetch_and_add generations 1

let decode_record blob off id =
  let c = Codec.cursor ~pos:off blob in
  let dewey = Codec.read_int_array c in
  let kind =
    match c.data.[c.pos] with
    | 'E' -> Xml.Doc.Element
    | 'A' -> Xml.Doc.Attribute
    | _ -> raise (Codec.Corrupt "bad node kind")
  in
  c.pos <- c.pos + 1;
  let name = Codec.read_string c in
  let type_id = Codec.read_uint c in
  let parent = Codec.read_int c in
  let value = Codec.read_string c in
  ({ id; dewey; kind; name; type_id; parent; value }, c.pos - off)

(* Encoded size of a string field, as [Codec.add_string] writes it. *)
let string_size s = Codec.uint_size (String.length s) + String.length s

(* The bitmap of a store with no overlay entries. *)
let no_patches count = String.make ((count + 7) / 8) '\000'

(* Serialized size of a Dewey column, as [save] writes it. *)
let column_bytes col =
  Array.fold_left
    (fun acc d -> acc + Codec.int_array_size d) (Codec.uint_size (Array.length col)) col

let shred doc =
  let count = Xml.Doc.node_count doc in
  Xmobs.Obs.phase "store.shred" ~attrs:[ ("nodes", Xmobs.Trace.Int count) ] @@ fun () ->
  let types = Xml.Doc.types doc in
  let seqs = Array.init (Xml.Type_table.count types) (Xml.Doc.nodes_of_type doc) in
  (* A record's kind, name and type fields depend on its type alone: they
     are encoded once per type. *)
  let type_fields =
    Array.init (Array.length seqs) (fun ty ->
        let label = Xml.Type_table.label types ty in
        let b = Bytes.create (1 + string_size label + Codec.uint_size ty) in
        Bytes.set b 0 (if Xml.Type_table.is_attribute types ty then 'A' else 'E');
        ignore (Codec.put_uint b (Codec.put_string b 1 label) ty);
        Bytes.unsafe_to_string b)
  in
  (* Two passes over the node table: the first sizes every record, sequence
     row and Dewey column, the second encodes the records into a blob of
     exactly that size, so the blob is allocated once and never copied. *)
  let seq_bytes = Array.map (fun seq -> Codec.uint_size (Array.length seq)) seqs in
  let dewey_col_bytes = Array.copy seq_bytes in
  let offsets = Array.make count 0 in
  let size = ref 0 in
  for i = 0 to count - 1 do
    offsets.(i) <- !size;
    let ty = Xml.Doc.type_of doc i in
    let dewey_size = Codec.int_array_size (Xml.Doc.dewey doc i) in
    seq_bytes.(ty) <- seq_bytes.(ty) + Codec.int_size i;
    dewey_col_bytes.(ty) <- dewey_col_bytes.(ty) + dewey_size;
    size :=
      !size + dewey_size + String.length type_fields.(ty)
      + Codec.int_size (Xml.Doc.parent doc i) + string_size (Xml.Doc.value doc i)
  done;
  let blob = Bytes.create !size in
  for i = 0 to count - 1 do
    let fields = type_fields.(Xml.Doc.type_of doc i) in
    let pos = Codec.put_int_array blob offsets.(i) (Xml.Doc.dewey doc i) in
    Bytes.blit_string fields 0 blob pos (String.length fields);
    let pos = Codec.put_int blob (pos + String.length fields) (Xml.Doc.parent doc i) in
    ignore (Codec.put_string blob pos (Xml.Doc.value doc i))
  done;
  { blob = Bytes.unsafe_to_string blob; offsets; values = Int_map.empty;
    patched = no_patches count; data_bytes = !size; seqs; seq_bytes;
    dewey_cols = Array.map (Array.map (Xml.Doc.dewey doc)) seqs; dewey_col_bytes;
    guide = Xml.Dataguide.of_doc doc; stats = Io_stats.create ();
    groups = Hashtbl.create 16; lock = Mutex.create (); generation = next_generation () }

let stats t = t.stats
let generation t = t.generation
let guide t = t.guide
let types t = Xml.Dataguide.types t.guide
let node_count t = Array.length t.offsets
let data_bytes t = t.data_bytes

let is_patched patched i =
  Char.code patched.[i lsr 3] land (1 lsl (i land 7)) <> 0

(* A node whose record sits in the overlay, charged at the size it has once
   folded into the blob.  Kept out of line so the common path through
   [node] stays small. *)
let[@inline never] patched_node t i =
  let record, size = Int_map.find i t.values in
  Io_stats.charge_read t.stats size;
  record

let node t i =
  if is_patched t.patched i then patched_node t i
  else begin
    let rec_, size = decode_record t.blob t.offsets.(i) i in
    Io_stats.charge_read t.stats size;
    rec_
  end

(* [node]'s [value] field alone: the fields before it are skipped, not
   decoded, but the read is charged at the record's full encoded size, as
   [node] charges it. *)
let value t i =
  if is_patched t.patched i then (patched_node t i).value
  else begin
    let off = t.offsets.(i) in
    let c = Codec.cursor ~pos:off t.blob in
    for _ = 1 to Codec.read_uint c do
      ignore (Codec.read_int c)
    done;
    c.pos <- c.pos + 1 (* kind *);
    Codec.skip_string c (* name *);
    ignore (Codec.read_uint c) (* type *);
    ignore (Codec.read_int c) (* parent *);
    let v = Codec.read_string c in
    Io_stats.charge_read t.stats (c.pos - off);
    v
  end

let dewey_column t ty =
  if ty < 0 || ty >= Array.length t.dewey_cols then [||]
  else begin
    Io_stats.charge_read t.stats t.dewey_col_bytes.(ty);
    t.dewey_cols.(ty)
  end

let grouped_sequence t ty ~level =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.groups (ty, level) with
  | Some g ->
      Mutex.unlock t.lock;
      g
  | None ->
      let deweys =
        if ty < 0 || ty >= Array.length t.dewey_cols then [||]
        else t.dewey_cols.(ty)
      in
      let runs = ref [] in
      let n = Array.length deweys in
      (* Index loop, not [Array.sub]: this comparison runs once per adjacent
         pair and used to allocate two prefix copies each time. *)
      let same_prefix a b =
        Array.length a >= level
        && Array.length b >= level
        &&
        let rec go i = i >= level || (a.(i) = b.(i) && go (i + 1)) in
        go 0
      in
      let start = ref 0 in
      for i = 1 to n do
        if i = n || not (same_prefix deweys.(i - 1) deweys.(i)) then begin
          runs := (!start, i) :: !runs;
          start := i
        end
      done;
      let g = Array.of_list (List.rev !runs) in
      Hashtbl.replace t.groups (ty, level) g;
      Mutex.unlock t.lock;
      (* Building the row reads the type's Dewey column once (the columnar
         sidecar; full records are no longer decoded here). *)
      if ty >= 0 && ty < Array.length t.dewey_col_bytes then
        Io_stats.charge_read t.stats t.dewey_col_bytes.(ty);
      g

let sequence t ty =
  if ty < 0 || ty >= Array.length t.seqs then [||]
  else begin
    Io_stats.charge_read t.stats t.seq_bytes.(ty);
    t.seqs.(ty)
  end

let update_values t updates =
  let count = Array.length t.offsets in
  (* Every id is checked before any effect; the last write to an id wins. *)
  let batch =
    List.fold_left
      (fun batch (id, value) ->
        if id < 0 || id >= count then invalid_arg "Shredded.update_values";
        Int_map.add id value batch)
      Int_map.empty updates
  in
  let patched = Bytes.of_string t.patched in
  let values, data_bytes, touched =
    Int_map.fold
      (fun id value (values, data_bytes, touched) ->
        let record, size = decode_record t.blob t.offsets.(id) id in
        let old_size = match Int_map.find_opt id t.values with Some (_, s) -> s | None -> size in
        let new_size = size - string_size record.value + string_size value in
        Io_stats.charge_write t.stats new_size;
        let byte = Char.code (Bytes.get patched (id lsr 3)) in
        Bytes.set patched (id lsr 3) (Char.chr (byte lor (1 lsl (id land 7))));
        ( Int_map.add id ({ record with value }, new_size) values,
          data_bytes + new_size - old_size,
          record.type_id :: touched ))
      batch (t.values, t.data_bytes, [])
  in
  (* Values play no part in Dewey numbers, so the columnar sidecar and the
     grouped-run caches stay valid; drop only the updated nodes' types (a
     conservative invalidation) instead of the whole table. *)
  let groups =
    Mutex.lock t.lock;
    let g = Hashtbl.copy t.groups in
    Mutex.unlock t.lock;
    Hashtbl.filter_map_inplace
      (fun (ty, _) runs -> if List.mem ty touched then None else Some runs)
      g;
    g
  in
  { t with values; patched = Bytes.unsafe_to_string patched; data_bytes; groups;
    lock = Mutex.create (); generation = next_generation () }

let update_value t id value = update_values t [ (id, value) ]

(* The node blob and offsets table with the overlay folded in: the bytes a
   store shredded with the current values would hold.  Records lie in id
   order and a record's value is its last field, so each patched record is
   its old bytes up to the value followed by the new value. *)
let compact t =
  if Int_map.is_empty t.values then (t.blob, t.offsets)
  else begin
    let b = Buffer.create t.data_bytes in
    let offsets = Array.copy t.offsets in
    let copied = ref 0 (* blob bytes before this are in [b] *)
    and shifted = ref 0 (* offsets before this id are final *)
    and delta = ref 0 in
    Int_map.iter
      (fun id ({ value; _ }, _) ->
        for i = !shifted to id do
          offsets.(i) <- t.offsets.(i) + !delta
        done;
        shifted := id + 1;
        let off = t.offsets.(id) in
        let record, size = decode_record t.blob off id in
        let value_start = off + size - string_size record.value in
        Buffer.add_substring b t.blob !copied (value_start - !copied);
        Codec.add_string b value;
        copied := off + size;
        delta := !delta + string_size value - string_size record.value)
      t.values;
    Buffer.add_substring b t.blob !copied (String.length t.blob - !copied);
    for i = !shifted to Array.length offsets - 1 do
      offsets.(i) <- t.offsets.(i) + !delta
    done;
    (Buffer.contents b, offsets)
  end

let magic = "XMORPH-STORE-2\n"

(* The part of the magic every format version shares. *)
let magic_prefix = "XMORPH-STORE-"

let is_store path =
  In_channel.with_open_bin path (fun ic ->
      In_channel.really_input_string ic (String.length magic_prefix) = Some magic_prefix)

let save t path =
  Xmobs.Obs.phase "store.save" @@ fun () ->
  let blob, offsets = compact t in
  let b = Buffer.create (String.length blob + 1024) in
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
  (* Columnar Dewey sidecar. *)
  Array.iter
    (fun col ->
      Codec.add_uint b (Array.length col);
      Array.iter (Codec.add_int_array b) col)
    t.dewey_cols;
  (* Node blob. *)
  Codec.add_uint b (Array.length offsets);
  Codec.add_int_array b offsets;
  Codec.add_string b blob;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

let load path =
  Xmobs.Obs.phase "store.load" @@ fun () ->
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
  let dewey_cols =
    Array.init ntypes (fun ty ->
        let len = Codec.read_uint c in
        if len <> Array.length seqs.(ty) then raise (Codec.Corrupt "dewey column size");
        Array.init len (fun _ -> Codec.read_int_array c))
  in
  let nnodes = Codec.read_uint c in
  let offsets = Codec.read_int_array c in
  if Array.length offsets <> nnodes then raise (Codec.Corrupt "offset table size");
  let blob = Codec.read_string c in
  { blob; offsets; values = Int_map.empty; patched = no_patches nnodes;
    data_bytes = String.length blob; seqs; seq_bytes = Array.map Codec.int_array_size seqs;
    dewey_cols; dewey_col_bytes = Array.map column_bytes dewey_cols; guide;
    stats = Io_stats.create (); groups = Hashtbl.create 16;
    lock = Mutex.create (); generation = next_generation () }
