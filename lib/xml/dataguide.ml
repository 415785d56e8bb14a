open Xmutil

type t = {
  types : Type_table.t;
  roots : Type_table.id list;
  cards : Card.t array;
  counts : int array;
  uid : int;
      (* Identity of this shape value, unique in the process; plan caches
         key compiled guards on it so plans never leak across documents. *)
}

let uids = Atomic.make 0

let next_uid () = Atomic.fetch_and_add uids 1

let of_doc doc =
  let types = Doc.types doc in
  let n_types = Type_table.count types in
  let counts = Array.init n_types (Doc.type_count doc) in
  (* Observed range of child counts per type; [hi] = -1 until observed. *)
  let lo = Array.make n_types max_int and hi = Array.make n_types (-1) in
  (* Children per type under the current node; every child type is a child
     of the node's type, so reading along those resets the tally. *)
  let tally = Array.make n_types 0 in
  let kid_types =
    Array.init n_types (fun ty -> Array.of_list (Type_table.children types ty))
  in
  for i = 0 to Doc.node_count doc - 1 do
    for k = 0 to Doc.child_count doc i - 1 do
      let cty = Doc.type_of doc (Doc.child doc i k) in
      tally.(cty) <- tally.(cty) + 1
    done;
    let kids = kid_types.(Doc.type_of doc i) in
    for j = 0 to Array.length kids - 1 do
      let cty = kids.(j) in
      lo.(cty) <- Int.min lo.(cty) tally.(cty);
      hi.(cty) <- Int.max hi.(cty) tally.(cty);
      tally.(cty) <- 0
    done
  done;
  let cards =
    Array.mapi (fun ty h -> if h < 0 then Card.one else Card.v lo.(ty) h) hi
  in
  let roots =
    List.filter (fun ty -> Type_table.parent types ty = None) (List.init n_types Fun.id)
  in
  List.iter (fun r -> cards.(r) <- Card.one) roots;
  { types; roots; cards; counts; uid = next_uid () }

let make ~types ~roots ~cards ~counts =
  { types; roots; cards; counts; uid = next_uid () }

let uid s = s.uid
let types s = s.types
let root s = List.hd s.roots
let roots s = s.roots

let all_types s = List.init (Type_table.count s.types) Fun.id

let children s ty = Type_table.children s.types ty

let card s ty = s.cards.(ty)

let instance_count s ty = s.counts.(ty)

let match_label s lbl =
  Label.resolve ~name:(Type_table.component s.types) ~parent:(Type_table.parent s.types)
    lbl (all_types s)

let type_distance s a b = Type_table.type_distance s.types a b

let path_card s t u =
  let l = Type_table.lca_depth s.types t u in
  (* Walk from u up to depth l, multiplying edge adornments (Def. 6); the
     upward half of the path from t contributes 1..1 at every step. *)
  let rec go ty acc =
    if Type_table.depth s.types ty <= l then acc
    else
      match Type_table.parent s.types ty with
      | None -> Card.mul acc s.cards.(ty)
      | Some p -> go p (Card.mul acc s.cards.(ty))
  in
  if t = u then Card.one else go u Card.one

let pp fmt s =
  let rec go indent ty =
    Format.fprintf fmt "%s%s %a (x%d)@." indent
      (Type_table.component s.types ty)
      Card.pp s.cards.(ty) s.counts.(ty);
    List.iter (go (indent ^ "  ")) (children s ty)
  in
  List.iter (go "") s.roots

let to_string s = Format.asprintf "%a" pp s
