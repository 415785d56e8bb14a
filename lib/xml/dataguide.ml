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

(* The adornment of the edge into a type (Def. 3) from its instances [ids],
   in document order: the children of one parent instance form one run of
   [ids] (every instance lies one level below its parent's type, so no
   other one falls inside a sibling's subtree).  The runs' lengths are the
   child counts of the [parents] instances that have any; when there are
   fewer runs than instances, some instance has none. *)
let card_of_runs parent ids parents =
  let lo = ref max_int and hi = ref 0 and runs = ref 0 in
  let start = ref 0 and run_parent = ref (-2) in
  for i = 0 to Array.length ids - 1 do
    let p = parent.(ids.(i)) in
    if p <> !run_parent then begin
      if i > 0 then begin
        lo := Int.min !lo (i - !start);
        hi := Int.max !hi (i - !start)
      end;
      incr runs;
      start := i;
      run_parent := p
    end
  done;
  let last = Array.length ids - !start in
  Card.v (if !runs < parents then 0 else Int.min !lo last) (Int.max !hi last)

let of_doc doc =
  let types = Doc.types doc in
  let n_types = Type_table.count types in
  let counts = Array.init n_types (Doc.type_count doc) in
  let parent = Doc.parent_column doc in
  let cards =
    Array.init n_types (fun ty ->
        match Type_table.parent types ty with
        | None -> Card.one
        | Some p -> card_of_runs parent (Doc.nodes_of_type doc ty) counts.(p))
  in
  let roots =
    List.filter (fun ty -> Type_table.parent types ty = None) (List.init n_types Fun.id)
  in
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
