type result = {
  shape : Tshape.t;
  labels : Report.label_report;
  warnings : string list;
}

type ctx = {
  guide : Xml.Dataguide.t;
  mutable labels : Report.label_binding list;
  mutable pending : (string * Tshape.node list * bool) list;
      (* label occurrences of the current stage; resolved into [labels] when
         the stage's shape is final, so pruned ambiguous types drop out *)
  mutable warnings : string list;
  mutable type_fill : bool;
  star_uids : (int, unit) Hashtbl.t;
      (* nodes added by [*]/[**] expansion; deduplicated silently *)
  obs : Xmobs.Ctx.t option;
      (* the request context the operator regions record into, handed to
         the evaluation *)
}

let err fmt = Format.kasprintf (fun s -> raise (Tshape.Error s)) fmt

let warn ctx fmt =
  Format.kasprintf (fun s -> ctx.warnings <- s :: ctx.warnings) fmt

let qname ctx ty = Xml.Type_table.qname (Xml.Dataguide.types ctx.guide) ty

let record_label ctx label nodes ~filled =
  ctx.pending <- (label, nodes, filled) :: ctx.pending

(* Turn the stage's pending bindings into report entries, keeping only the
   nodes that made it into the stage's final shape (the type analysis may
   have pruned ambiguous candidates). *)
let flush_labels ctx (shape : Tshape.t) =
  let in_final n =
    List.exists (fun r -> r == Tshape.root_of n) shape.roots
  in
  List.iter
    (fun (label, nodes, filled) ->
      let kept = List.filter in_final nodes in
      let kept = if kept = [] then nodes else kept in
      let bound_to =
        List.filter_map
          (fun (n : Tshape.node) -> Option.map (qname ctx) n.source)
          kept
      in
      ctx.labels <-
        { Report.label; bound_to; ambiguous = List.length kept > 1; filled }
        :: ctx.labels)
    (List.rev ctx.pending);
  ctx.pending <- []

(* Distance between two target nodes for closest-pair disambiguation: the
   shape-level type distance between their source types.  Nodes without a
   source (NEW) are infinitely far — they attach structurally. *)
let node_distance ctx (a : Tshape.node) (b : Tshape.node) =
  match (a.source, b.source) with
  | Some sa, Some sb -> Xml.Dataguide.type_distance ctx.guide sa sb
  | _ -> max_int

(* The same, for pairing a child under a parent in a MORPH, where both are
   fresh copies: a non-clone child of its non-clone parent's own source
   type would put the type in the target twice, which
   [Tshape.check_forest] refuses, so it does not pair.  A child label that
   also matches a nested type of that name (x1 under x1) pairs with the
   nested one instead. *)
let morph_distance ctx (x : Tshape.node) (r : Tshape.node) =
  if (not x.clone) && (not r.clone) && Option.is_some x.source && x.source = r.source
  then max_int
  else node_distance ctx x r

let in_shape (t : Tshape.t) n =
  List.exists (fun r -> r == Tshape.root_of n) t.roots

(* Pick the closest parent among [xs] for child [r] by [dist]. *)
let closest_parent ctx dist xs r =
  match xs with
  | [] -> err "a shape pattern produced no parent for %s" r.Tshape.out_name
  | [ x ] -> x
  | x0 :: _ ->
      let best, _d, tie =
        List.fold_left
          (fun (best, d, tie) x ->
            let dx = dist x r in
            if dx < d then (x, dx, false)
            else if dx = d && dx < max_int then (best, d, true)
            else (best, d, tie))
          (x0, dist x0 r, false)
          (List.tl xs)
      in
      if tie then
        warn ctx
          "label %s is equally close to several parent types; attached under %s"
          r.Tshape.out_name best.Tshape.out_name;
      best

let mark_clone_deep n =
  let rec go (n : Tshape.node) =
    n.clone <- true;
    List.iter go n.children;
    List.iter go n.restrict_children
  in
  go n

let restrict_node (r : Tshape.node) =
  r.restrict_children <- r.restrict_children @ r.children;
  r.children <- []

(* The sibling-ordering extension: the ORDER-BY key names source types, and
   each sorted node takes the one nearest its own source type (ties keep
   the first), as a child label takes its closest parent.  A key that names
   nothing is a type mismatch, or a warning under TYPE-FILL. *)
let order_by ctx rs key desc =
  (match Xml.Dataguide.match_label ctx.guide key with
  | [] ->
      if ctx.type_fill then warn ctx "ORDER-BY %s matched no type" key
      else err "label %s does not match any type in the shape (a type mismatch)" key
  | c0 :: cs ->
      List.iter
        (fun (r : Tshape.node) ->
          Option.iter
            (fun sty ->
              let d = Xml.Dataguide.type_distance ctx.guide sty in
              let kty = List.fold_left (fun b c -> if d c < d b then c else b) c0 cs in
              r.sort_key <- Some (kty, desc))
            r.source)
        rs);
  rs

(* Type analysis for ambiguous child labels: among the candidate types an
   item resolved to, keep only those closest to some parent (Sec. VIII: "if
   some pairing ... is farther than some other pairing, then it is not
   used"). *)
let keep_closest dist xs rs =
  match rs with
  | [] | [ _ ] -> rs
  | _ ->
      let dist r = List.fold_left (fun acc x -> min acc (dist x r)) max_int xs in
      let dmin = List.fold_left (fun acc r -> min acc (dist r)) max_int rs in
      if dmin = max_int then rs
      else List.filter (fun r -> dist r = dmin) rs

(* ------------------------------------------------------------------ *)
(* MORPH: evaluate a pattern to a fresh forest drawn from [cur].       *)
(* ------------------------------------------------------------------ *)

(* Each recursive evaluator is split into a profiled wrapper and an [_op]
   body: when the evaluation's context keeps no frames the wrapper is one
   branch and a tail call (no closure, no allocation); when it does, it
   opens an operator region named after the operator so the profile tree
   mirrors the Fig. 9 plan. *)

let rec eval_pattern ctx (cur : Tshape.t) (g : Algebra.t) : Tshape.node list =
  if not (Xmobs.Ctx.keeps_frames ctx.obs) then eval_pattern_op ctx cur g
  else begin
    let op = Xmobs.Ctx.enter ctx.obs (Algebra.op_name g) in
    match eval_pattern_op ctx cur g with
    | rs ->
        Xmobs.Ctx.exit ~out_count:(List.length rs) ctx.obs op;
        rs
    | exception e ->
        Xmobs.Ctx.exit ctx.obs op;
        raise e
  end

and eval_pattern_op ctx (cur : Tshape.t) (g : Algebra.t) : Tshape.node list =
  match g.desc with
  | Algebra.Type_sel { label; bang = _ } -> (
      match Tshape.match_label cur label with
      | [] ->
          if ctx.type_fill then begin
            let n = Tshape.fresh ~filled:true label in
            record_label ctx label [ n ] ~filled:true;
            [ n ]
          end
          else
            err "label %s does not match any type in the shape (a type mismatch)"
              label
      | nodes ->
          g.inferred <- List.filter_map (fun (n : Tshape.node) -> n.source) nodes;
          let copies = List.map (Tshape.copy_node ~deep:false) nodes in
          record_label ctx label copies ~filled:false;
          copies)
  | Algebra.Closest (p0, items) ->
      let xs = eval_pattern ctx cur p0 in
      if Xmobs.Ctx.keeps_frames ctx.obs then
        Xmobs.Ctx.add_in ctx.obs (List.length xs);
      let received = Hashtbl.create 4 in
      let distance_items = ref false in
      List.iter
        (fun (item : Algebra.t) ->
          match item.desc with
          | Algebra.Star_children ->
              List.iter (fun x -> add_star_children ctx x ~deep:false) xs
          | Algebra.Star_descendants ->
              List.iter (fun x -> add_star_children ctx x ~deep:true) xs
          | Algebra.Drop _ -> err "DROP is only allowed inside a MUTATE"
          | _ ->
              distance_items := true;
              let rs = eval_pattern ctx cur item in
              let rs = keep_closest (morph_distance ctx) xs rs in
              if Xmobs.Ctx.keeps_frames ctx.obs then
                Xmobs.Ctx.add_pairs ctx.obs (List.length rs);
              List.iter
                (fun r ->
                  let x = closest_parent ctx (morph_distance ctx) xs r in
                  Hashtbl.replace received x.Tshape.uid ();
                  Tshape.attach ~parent:x r)
                rs)
        items;
      (* Type analysis: when the parent label was ambiguous, keep only the
         parent types that are closest to some child (Sec. VIII). *)
      let xs =
        if List.length xs > 1 && !distance_items && Hashtbl.length received > 0
        then
          List.filter
            (fun (x : Tshape.node) -> Hashtbl.mem received x.uid)
            xs
        else xs
      in
      g.inferred <- List.filter_map (fun (x : Tshape.node) -> x.source) xs;
      xs
  | Algebra.Children_of p ->
      let xs = eval_pattern ctx cur p in
      List.iter (fun x -> add_star_children ctx x ~deep:false) xs;
      xs
  | Algebra.Descendants_of p ->
      let xs = eval_pattern ctx cur p in
      List.iter (fun x -> add_star_children ctx x ~deep:true) xs;
      xs
  | Algebra.New_label l -> [ Tshape.fresh ~filled:true l ]
  | Algebra.Clone p ->
      let rs = eval_pattern ctx cur p in
      List.iter mark_clone_deep rs;
      rs
  | Algebra.Restrict p ->
      let rs = eval_pattern ctx cur p in
      List.iter restrict_node rs;
      rs
  | Algebra.Value_eq (p, v) ->
      let rs = eval_pattern ctx cur p in
      List.iter (fun (r : Tshape.node) -> r.value_filter <- Some v) rs;
      rs
  | Algebra.Order_by (p, k, desc) -> order_by ctx (eval_pattern ctx cur p) k desc
  | Algebra.Star_children | Algebra.Star_descendants ->
      err "* and ** are only allowed inside [ ] brackets"
  | Algebra.Drop _ -> err "DROP is only allowed inside a MUTATE"
  | Algebra.Morph _ | Algebra.Mutate _ | Algebra.Translate _
  | Algebra.Compose _ | Algebra.Cast _ | Algebra.Type_fill _ ->
      err "a guard stage cannot appear inside a shape pattern"

(* Pull the children of [x]'s origin (its node in the previous stage's
   shape) into [x]; shallow for [*], whole subtrees for [**]. *)
and add_star_children ctx (x : Tshape.node) ~deep =
  match x.origin with
  | None ->
      if not x.filled then
        warn ctx "%s has no children to include with *" x.out_name
  | Some o ->
      List.iter
        (fun (c : Tshape.node) ->
          let copy = Tshape.copy_node ~deep c in
          let rec mark (n : Tshape.node) =
            Hashtbl.replace ctx.star_uids n.uid ();
            List.iter mark n.children
          in
          mark copy;
          Tshape.attach ~parent:x copy)
        o.children

(* Remove star-expanded duplicates: an explicitly mentioned type wins over a
   copy pulled in by [*]/[**]; among star copies the first (preorder) wins. *)
let dedup_stars ctx (t : Tshape.t) =
  ignore ctx;
  let explicit = Hashtbl.create 16 in
  Tshape.iter t (fun n ->
      if (not n.clone) && not (Hashtbl.mem ctx.star_uids n.uid) then
        match n.source with
        | Some ty -> Hashtbl.replace explicit ty ()
        | None -> ());
  let seen_star = Hashtbl.create 16 in
  let to_remove = ref [] in
  Tshape.iter t (fun n ->
      if (not n.clone) && Hashtbl.mem ctx.star_uids n.uid then
        match n.source with
        | None -> ()
        | Some ty ->
            if Hashtbl.mem explicit ty || Hashtbl.mem seen_star ty then
              to_remove := n :: !to_remove
            else Hashtbl.add seen_star ty ());
  (* Detach deepest-first so removing a subtree containing another scheduled
     node is harmless. *)
  List.iter
    (fun (n : Tshape.node) ->
      match n.parent with None -> () | Some _ -> Tshape.detach t n)
    !to_remove

(* ------------------------------------------------------------------ *)
(* MUTATE: rearrange the working shape in place.                       *)
(* ------------------------------------------------------------------ *)

let rec resolve_mutate ctx (work : Tshape.t) (g : Algebra.t) : Tshape.node list =
  if not (Xmobs.Ctx.keeps_frames ctx.obs) then resolve_mutate_op ctx work g
  else begin
    let op = Xmobs.Ctx.enter ctx.obs (Algebra.op_name g) in
    match resolve_mutate_op ctx work g with
    | rs ->
        Xmobs.Ctx.exit ~out_count:(List.length rs) ctx.obs op;
        rs
    | exception e ->
        Xmobs.Ctx.exit ctx.obs op;
        raise e
  end

and resolve_mutate_op ctx (work : Tshape.t) (g : Algebra.t) : Tshape.node list =
  match g.desc with
  | Algebra.Type_sel { label; _ } -> (
      match Tshape.match_label work label with
      | [] ->
          if ctx.type_fill then begin
            let n = Tshape.fresh ~filled:true label in
            record_label ctx label [ n ] ~filled:true;
            [ n ]
          end
          else
            err "label %s does not match any type in the shape (a type mismatch)"
              label
      | nodes ->
          g.inferred <- List.filter_map (fun (n : Tshape.node) -> n.source) nodes;
          record_label ctx label nodes ~filled:false;
          nodes)
  | Algebra.Closest (p0, items) ->
      let xs = resolve_mutate ctx work p0 in
      if Xmobs.Ctx.keeps_frames ctx.obs then
        Xmobs.Ctx.add_in ctx.obs (List.length xs);
      List.iter (fun item -> mutate_item ctx work xs item) items;
      g.inferred <- List.filter_map (fun (x : Tshape.node) -> x.source) xs;
      xs
  | Algebra.New_label l -> [ Tshape.fresh ~filled:true l ]
  | Algebra.Clone p ->
      let rs = resolve_mutate ctx work p in
      let copies = List.map (Tshape.copy_node ~deep:true) rs in
      List.iter mark_clone_deep copies;
      copies
  | Algebra.Restrict p ->
      let rs = resolve_mutate ctx work p in
      List.iter restrict_node rs;
      rs
  | Algebra.Value_eq (p, v) ->
      let rs = resolve_mutate ctx work p in
      List.iter (fun (r : Tshape.node) -> r.value_filter <- Some v) rs;
      rs
  | Algebra.Order_by (p, k, desc) -> order_by ctx (resolve_mutate ctx work p) k desc
  | Algebra.Children_of p | Algebra.Descendants_of p ->
      (* In a MUTATE the children and descendants are already present. *)
      resolve_mutate ctx work p
  | Algebra.Drop p ->
      let rs = resolve_mutate ctx work p in
      List.iter
        (fun (r : Tshape.node) -> if in_shape work r then Tshape.remove_promote work r)
        rs;
      []
  | Algebra.Star_children | Algebra.Star_descendants -> []
  | Algebra.Morph _ | Algebra.Mutate _ | Algebra.Translate _
  | Algebra.Compose _ | Algebra.Cast _ | Algebra.Type_fill _ ->
      err "a guard stage cannot appear inside a shape pattern"

and mutate_item ctx work xs (item : Algebra.t) =
  match item.desc with
  | Algebra.Star_children | Algebra.Star_descendants -> ()
  | Algebra.Drop p ->
      let rs = resolve_mutate ctx work p in
      List.iter
        (fun (r : Tshape.node) -> if in_shape work r then Tshape.remove_promote work r)
        rs
  | _ ->
      let rs = resolve_mutate ctx work item in
      let rs = keep_closest (node_distance ctx) xs rs in
      if Xmobs.Ctx.keeps_frames ctx.obs then
        Xmobs.Ctx.add_pairs ctx.obs (List.length rs);
      List.iter
        (fun (r : Tshape.node) ->
          let x = closest_parent ctx (node_distance ctx) xs r in
          if not (in_shape work x) then begin
            (* Fresh parent (NEW/TYPE-FILL): insert it where the child
               currently lives, then move the child under it — this is how
               MUTATE (NEW scribe) [ author ] wraps authors. *)
            if in_shape work r then begin
              (match r.parent with
              | None ->
                  work.roots <-
                    List.map (fun t -> if t == r then x else t) work.roots;
                  r.parent <- None
              | Some p ->
                  p.children <-
                    List.map (fun c -> if c == r then x else c) p.children;
                  x.parent <- Some p;
                  r.parent <- None);
              Tshape.attach ~parent:x r
            end
            else begin
              (* Both fresh: just connect them. *)
              Tshape.attach ~parent:x r
            end
          end
          else if in_shape work r then Tshape.move_under work ~parent:x r
          else Tshape.attach ~parent:x r)
        rs

(* ------------------------------------------------------------------ *)
(* Stages and pipelines.                                               *)
(* ------------------------------------------------------------------ *)

let eval_translate ctx (cur : Tshape.t) renames =
  let work = Tshape.copy cur in
  List.iter
    (fun (a, b) ->
      match Tshape.match_label work a with
      | [] ->
          if ctx.type_fill then
            warn ctx "TRANSLATE %s -> %s matched no type" a b
          else
            err "label %s does not match any type in the shape (a type mismatch)" a
      | nodes ->
          record_label ctx a nodes ~filled:false;
          List.iter (fun (n : Tshape.node) -> n.out_name <- b) nodes)
    renames;
  flush_labels ctx work;
  work

let shape_size (t : Tshape.t) =
  let n = ref 0 in
  Tshape.iter t (fun _ -> incr n);
  !n

let rec eval_guard ctx (cur : Tshape.t) (g : Algebra.t) : Tshape.t =
  if not (Xmobs.Ctx.keeps_frames ctx.obs) then eval_guard_op ctx cur g
  else begin
    let op = Xmobs.Ctx.enter ctx.obs (Algebra.op_name g) in
    Xmobs.Ctx.add_in ctx.obs (shape_size cur);
    match eval_guard_op ctx cur g with
    | r ->
        Xmobs.Ctx.exit ~out_count:(shape_size r) ctx.obs op;
        r
    | exception e ->
        Xmobs.Ctx.exit ctx.obs op;
        raise e
  end

and eval_guard_op ctx (cur : Tshape.t) (g : Algebra.t) : Tshape.t =
  match g.desc with
  | Algebra.Compose (a, b) ->
      let mid = eval_guard ctx cur a in
      eval_guard ctx mid b
  | Algebra.Cast (_, inner) -> eval_guard ctx cur inner
  | Algebra.Type_fill inner ->
      let saved = ctx.type_fill in
      ctx.type_fill <- true;
      let r = eval_guard ctx cur inner in
      ctx.type_fill <- saved;
      r
  | Algebra.Morph items ->
      Hashtbl.reset ctx.star_uids;
      let roots = List.concat_map (eval_pattern ctx cur) items in
      let t : Tshape.t = { roots } in
      dedup_stars ctx t;
      Tshape.check_forest t;
      Tshape.clear_origins t;
      flush_labels ctx t;
      t
  | Algebra.Mutate items ->
      let work = Tshape.copy cur in
      List.iter
        (fun item ->
          let roots = resolve_mutate ctx work item in
          (* Unattached fresh results become new roots. *)
          List.iter
            (fun (r : Tshape.node) ->
              if (not (in_shape work r)) && r.parent = None then
                work.roots <- work.roots @ [ r ])
            roots)
        items;
      Tshape.check_forest work;
      Tshape.clear_origins work;
      flush_labels ctx work;
      work
  | Algebra.Translate renames -> eval_translate ctx cur renames
  | Algebra.Type_sel _ | Algebra.Closest _ | Algebra.Star_children
  | Algebra.Star_descendants | Algebra.Children_of _ | Algebra.Descendants_of _
  | Algebra.Drop _ | Algebra.Clone _ | Algebra.New_label _ | Algebra.Restrict _
  | Algebra.Value_eq _ | Algebra.Order_by _ ->
      err "expected MORPH, MUTATE or TRANSLATE at the top of a guard"

let eval ?ctx:obs guide g =
  let ctx =
    { guide; labels = []; pending = []; warnings = []; type_fill = false;
      star_uids = Hashtbl.create 16; obs }
  in
  let initial = Tshape.of_guide guide in
  (* The initial shape is its own origin so that a first-stage [*] works. *)
  Tshape.iter initial (fun n -> n.origin <- Some n);
  let shape = eval_guard ctx initial g in
  { shape; labels = List.rev ctx.labels; warnings = List.rev ctx.warnings }
