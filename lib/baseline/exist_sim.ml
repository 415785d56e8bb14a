type t = {
  text : string;
  tree : Xml.Tree.t;
  (* eXist's structural element index: name -> elements, document order. *)
  index : (string, Xml.Tree.t list) Hashtbl.t;
  stats : Store.Io_stats.t;
}

let build_index tree =
  let index = Hashtbl.create 64 in
  let rec go (t : Xml.Tree.t) =
    match t with
    | Xml.Tree.Text _ -> ()
    | Xml.Tree.Element { name; children; _ } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt index name) in
        Hashtbl.replace index name (t :: prev);
        List.iter go children
  in
  go tree;
  (* Store in document order. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) index;
  index

let store tree =
  let text = Xml.Printer.to_string tree in
  let stats = Store.Io_stats.create () in
  Store.Io_stats.charge_write ?ctx:(Xmobs.Ctx.current ()) stats (String.length text);
  { text; tree; index = build_index tree; stats }

let of_doc doc = store (Xml.Doc.to_tree doc)

let stats t = t.stats

let size_bytes t = String.length t.text

(* Each operation's charges also go to the calling thread's request
   context, looked up once when it begins. *)
let dump t buf =
  let ctx = Xmobs.Ctx.current () in
  Store.Io_stats.charge_read ?ctx t.stats (String.length t.text);
  let start = Buffer.length buf in
  Buffer.add_string buf "<data>";
  Buffer.add_string buf t.text;
  Buffer.add_string buf "</data>";
  let written = Buffer.length buf - start in
  Store.Io_stats.charge_write ?ctx t.stats written;
  written

(* [//name] with no predicates hits the structural index. *)
let indexed_lookup ?ctx t src =
  match Xquery.Qparse.parse src with
  | Xquery.Qast.Path (Xquery.Qast.Root, Xquery.Qast.Descendant,
                      Xquery.Qast.Name n, []) ->
      let hits = Option.value ~default:[] (Hashtbl.find_opt t.index n) in
      List.iter
        (fun h -> Store.Io_stats.charge_read ?ctx t.stats (Xml.Printer.serialized_size h))
        hits;
      Some (List.map (fun h -> Xquery.Value.Node h) hits)
  | _ -> None
  | exception _ -> None

let run ?ctx t src =
  match indexed_lookup ?ctx t src with
  | Some result -> result
  | None ->
      (* Full scan: charge the sequential read and navigate the resident
         document. *)
      Store.Io_stats.charge_read ?ctx t.stats (String.length t.text);
      Xquery.Eval.run t.tree src

let query t src = run ?ctx:(Xmobs.Ctx.current ()) t src

let query_to_buffer t src buf =
  let ctx = Xmobs.Ctx.current () in
  let result = run ?ctx t src in
  let start = Buffer.length buf in
  List.iter
    (fun tree -> Xml.Printer.to_buffer buf tree)
    (Xquery.Value.to_trees result);
  let written = Buffer.length buf - start in
  Store.Io_stats.charge_write ?ctx t.stats written;
  written
