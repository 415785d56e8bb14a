type id = int

type t = {
  index : (int * string, id) Hashtbl.t; (* (parent or -1, component) -> id *)
  components : string Xmutil.Vec.t;
  parents : int Xmutil.Vec.t; (* -1 for roots *)
  depths : int Xmutil.Vec.t;
  kids : id list ref Xmutil.Vec.t; (* reversed during construction *)
}

let create () =
  {
    index = Hashtbl.create 64;
    components = Xmutil.Vec.create ();
    parents = Xmutil.Vec.create ();
    depths = Xmutil.Vec.create ();
    kids = Xmutil.Vec.create ();
  }

let key parent comp = ((match parent with None -> -1 | Some p -> p), comp)

let find t ~parent comp = Hashtbl.find_opt t.index (key parent comp)

let intern t ~parent comp =
  match find t ~parent comp with
  | Some id -> id
  | None ->
      let id = Xmutil.Vec.push t.components comp in
      let p = match parent with None -> -1 | Some p -> p in
      ignore (Xmutil.Vec.push t.parents p);
      let d = if p = -1 then 1 else Xmutil.Vec.get t.depths p + 1 in
      ignore (Xmutil.Vec.push t.depths d);
      ignore (Xmutil.Vec.push t.kids (ref []));
      if p <> -1 then begin
        let r = Xmutil.Vec.get t.kids p in
        r := id :: !r
      end;
      Hashtbl.add t.index (key parent comp) id;
      id

let count t = Xmutil.Vec.length t.components

let component t id = Xmutil.Vec.get t.components id

let label t id = Label.strip_at (component t id)

let is_attribute t id = Label.is_attribute (component t id)

let parent t id =
  let p = Xmutil.Vec.get t.parents id in
  if p = -1 then None else Some p

let depth t id = Xmutil.Vec.get t.depths id

let path t id =
  let rec go acc id =
    let acc = component t id :: acc in
    match parent t id with None -> acc | Some p -> go acc p
  in
  go [] id

let qname t id = String.concat "." (path t id)

let ancestor_at t ty l =
  let d = depth t ty in
  if l < 1 || l > d then invalid_arg "Type_table.ancestor_at";
  let rec up ty d = if d = l then ty else up (Xmutil.Vec.get t.parents ty) (d - 1) in
  up ty d

let lca_depth t a b =
  let da = depth t a and db = depth t b in
  let rec up ty d target =
    if d = target then ty else up (Xmutil.Vec.get t.parents ty) (d - 1) target
  in
  let d0 = min da db in
  let a' = up a da d0 and b' = up b db d0 in
  let rec go a b d =
    if a = b then d
    else if d = 1 then 0
    else go (Xmutil.Vec.get t.parents a) (Xmutil.Vec.get t.parents b) (d - 1)
  in
  if a' = b' then d0 else go a' b' d0

let type_distance t a b = depth t a + depth t b - (2 * lca_depth t a b)

let children t id = List.rev !(Xmutil.Vec.get t.kids id)

let iter t f =
  for i = 0 to count t - 1 do
    f i
  done
