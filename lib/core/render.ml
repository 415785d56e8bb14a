open Xmutil

type stats = { elements : int; bytes : int }

module Store_ = Store (* the OCaml library, not a value *)

(* One per render, [Nav.t], [explain], [instances],
   [instances_with_closest] or [closest_pairs] call, used by one thread
   at a time: the caches need no lock.  [ctx] is the request
   context every store read of the operation is charged to, the one
   handed to the operation. *)
type rctx = {
  store : Store_.Shredded.t;
  caches : (int, int array) Hashtbl.t;
      (* type -> its TypeToSequence row: node ids in document order *)
  edges : (int, joined) Hashtbl.t;
      (* [pty * ntypes + cty] -> that edge resolved, for the store's
         [ntypes] types.  An int key, which [Hashtbl.hash] spreads: it
         folds an int's high half into its low half, so a key of
         [(pty lsl 32) lor cty] put every pair with one [pty lxor cty] in
         one bucket. *)
  ctx : Xmobs.Ctx.t option;
}

(* A target edge resolved once: the child type's row, grouped into runs
   at the edge's join level, and the parent hops up to a run's key. *)
and joined = { row : int array; groups : Closest.runs; hops : int }

let make_rctx ?ctx store =
  { store; caches = Hashtbl.create 64; edges = Hashtbl.create 16; ctx }

(* The region name of the [pty -> cty] closest join.  The warehouse lines
   a render's recorded joins up with [Interp.predicted_joins] by it. *)
let join_name tt pty cty =
  Printf.sprintf "closest(%s->%s)" (Xml.Type_table.qname tt pty)
    (Xml.Type_table.qname tt cty)

let read_value rctx id = Store_.Shredded.value ?ctx:rctx.ctx rctx.store id

let cache rctx ty =
  match Hashtbl.find_opt rctx.caches ty with
  | Some c -> c
  | None ->
      (* Join-side data only: the sequence row, and a read of the type's
         join column charged.  No node record is decoded here — emission
         reads the values of the instances it actually outputs. *)
      let c = Store_.Shredded.sequence ?ctx:rctx.ctx rctx.store ty in
      Store_.Shredded.charge_join_column ?ctx:rctx.ctx rctx.store ty;
      Hashtbl.replace rctx.caches ty c;
      c

(* The closest join (CLOSE), the one kernel every join goes through.  The
   child side is the GroupedSequence table (Fig. 8): the child type's
   sequence grouped into runs sharing their ancestor at the join level
   [l], so a parent's closest children are exactly the run keyed by the
   parent's own ancestor at [l], [depth pty - l] parent hops up.  The
   edge is resolved on its first join in [rctx]; the reads charged then
   (both types' rows, and the runs when the store builds them) are all a
   join charges. *)
let joined rctx ~pty ~cty =
  let key = (pty * Xml.Type_table.count (Store_.Shredded.types rctx.store)) + cty in
  match Hashtbl.find rctx.edges key with
  | j -> j
  | exception Not_found ->
      ignore (cache rctx pty);
      let row = cache rctx cty in
      let l = Store_.Shredded.join_level rctx.store pty cty in
      let j =
        if Array.length row = 0 || l = 0 then { row; groups = Closest.no_runs; hops = 0 }
        else
          { row;
            groups = Store_.Shredded.grouped_sequence ?ctx:rctx.ctx rctx.store cty ~level:l;
            hops = Xml.Type_table.depth (Store_.Shredded.types rctx.store) pty - l }
      in
      Hashtbl.replace rctx.edges key j;
      j

(* [parents] are instances of [pty] in ascending (document) order; the
   result holds, per parent, the index of its run in the returned runs, or
   -1 when it has no closest child ([Closest.find]: one forward pass over
   the runs). *)
let closest_runs rctx ~pty ~parents ~cty =
  let j = joined rctx ~pty ~cty in
  let parent = Store_.Shredded.parent_column rctx.store in
  (Closest.find ~parent ~hops:j.hops j.groups parents, j.groups)

(* One parent's closest children, for navigation-style access: one
   ancestor hop and one bisection of the runs' keys. *)
let join_one rctx ~pty pid ~cty =
  let j = joined rctx ~pty ~cty in
  let keys = j.groups.keys in
  let n = Array.length keys in
  if n = 0 then [||]
  else begin
    let a = Closest.ancestor (Store_.Shredded.parent_column rctx.store) pid ~hops:j.hops in
    let g = Closest.bisect keys a 0 n in
    if g < n && keys.(g) = a then begin
      let gs = j.groups.offs.(g) in
      Array.sub j.row gs (j.groups.offs.(g + 1) - gs)
    end
    else [||]
  end

let ascending ids =
  let rec sorted i =
    i >= Array.length ids || (ids.(i - 1) <= ids.(i) && sorted (i + 1))
  in
  if sorted 1 then ids
  else begin
    let a = Array.copy ids in
    Array.sort Int.compare a;
    a
  end

(* One target edge's join result, in CSR form: [keys] are the parent (or
   anchor) instances, ascending; [runs.(k)] is key [k]'s run, or -1; run
   [r] is [kids.(offs.(r))] .. [kids.(offs.(r + 1) - 1)].  Keys sharing a
   closest run share one copy of it, so [kids] — the edge's distinct runs
   concatenated — is also its child set, in document order unless an
   ORDER-BY has sorted each run.  [cur] is the index of the key last
   looked up.  [shared] is set when two keys share a run; a tree walk
   then keeps each kid's subtree in [trees], indexed like [kids] and
   allocated on the walk's first visit to the edge. *)
type edge = {
  keys : int array;
  runs : int array;
  offs : int array;
  kids : int array;
  shared : bool;
  mutable cur : int;
  mutable trees : Xml.Tree.t array;
}

(* [key]'s run in [e], or -1.  A walk meets an edge's keys in ascending
   order unless an ORDER-BY or a shared run sends it back, so the key at
   the cursor and the one after it are tried before a bisection. *)
let run_of e key =
  let n = Array.length e.keys and c = e.cur in
  let k =
    if c < n && e.keys.(c) = key then c
    else if c + 1 < n && e.keys.(c + 1) = key then c + 1
    else Closest.bisect e.keys key 0 n
  in
  if k < n && e.keys.(k) = key then begin
    e.cur <- k;
    e.runs.(k)
  end
  else -1

(* Join [parents] to [cty] and lay the result out as an edge.  [parents]
   may come in any order (an ORDER-BY upstream reorders them); they are
   sorted here, which costs one scan when they already are.  [select],
   when given, maps a run [[gs, ge)] of [cty]'s sequence to the instances
   the target node keeps ([keep]).  It runs once per key, shared runs
   included: under the store's I/O model a parent re-reading a node pays
   for the read again.  Without [select], an edge whose keys reach every
   run of the grouped sequence is that sequence: [offs] and [kids] are the
   store's own arrays, not copies, and nothing may write to them.  [runs],
   fresh from [Closest.find], is rewritten in place. *)
let join_edge rctx ~pty ~parents ~cty ~select =
  let keys = ascending parents in
  let runs, groups = closest_runs rctx ~pty ~parents:keys ~cty in
  let ids = cache rctx cty in
  (* Runs are nondecreasing over ascending keys: equal ones are adjacent,
     so one pass counts the distinct ones and their entries, and sees
     whether a run is reached twice. *)
  let nkeys = Array.length runs in
  let nruns = ref 0 and entries = ref 0 and last = ref (-1) and shared = ref false in
  for k = 0 to nkeys - 1 do
    let g = runs.(k) in
    if g >= 0 then
      if g <> !last then begin
        incr nruns;
        entries := !entries + groups.Closest.offs.(g + 1) - groups.offs.(g);
        last := g
      end
      else shared := true
  done;
  let nruns = !nruns and shared = !shared in
  let edge offs kids = { keys; runs; offs; kids; shared; cur = 0; trees = [||] } in
  match select with
  | None when nruns > 0 && nruns = Array.length groups.keys ->
      (* Every run is used, in order: key [k]'s run is already its index
         among the distinct runs. *)
      edge groups.offs ids
  | None ->
      let offs = Array.make (nruns + 1) 0 and kids = Array.make !entries 0 in
      let r = ref (-1) and last = ref (-1) in
      for k = 0 to nkeys - 1 do
        let g = runs.(k) in
        if g >= 0 then begin
          if g <> !last then begin
            incr r;
            let gs = groups.offs.(g) in
            let len = groups.offs.(g + 1) - gs in
            Array.blit ids gs kids offs.(!r) len;
            offs.(!r + 1) <- offs.(!r) + len;
            last := g
          end;
          runs.(k) <- !r
        end
      done;
      edge offs kids
  | Some f ->
      let sels = Array.make nruns [||] and total = ref 0 in
      let r = ref (-1) and last = ref (-1) in
      for k = 0 to nkeys - 1 do
        let g = runs.(k) in
        if g >= 0 then begin
          let sel = f groups.offs.(g) groups.offs.(g + 1) in
          if g <> !last then begin
            incr r;
            sels.(!r) <- sel;
            total := !total + Array.length sel;
            last := g
          end;
          runs.(k) <- !r
        end
      done;
      let offs = Array.make (nruns + 1) 0 and kids = Array.make !total 0 in
      for r = 0 to nruns - 1 do
        let len = Array.length sels.(r) in
        Array.blit sels.(r) 0 kids offs.(r) len;
        offs.(r + 1) <- offs.(r) + len
      done;
      edge offs kids

(* Without parents the edge is empty and nothing is resolved or charged,
   so a node that keeps no instance joins nothing below it. *)
let build_edge rctx ~pty ~parents ~cty ~select =
  if Array.length parents = 0 then
    { keys = [||]; runs = [||]; offs = [| 0 |]; kids = [||]; shared = false; cur = 0;
      trees = [||] }
  else join_edge rctx ~pty ~parents ~cty ~select

let rec first_sourced (n : Tshape.node) =
  match n.source with Some ty -> Some ty | None -> List.find_map first_sourced n.children

(* Keep only instances passing a node's value filter (the value-based
   transformation extension): the record's direct text must equal the
   literal. *)
let filter_value rctx (tn : Tshape.node) ids =
  match tn.value_filter with
  | None -> ids
  | Some v ->
      Array.of_list
        (List.filter
           (fun id -> read_value rctx id = v)
           (Array.to_list ids))

(* Does instance [id] (of the anchor type [aty]) satisfy the restrict
   pattern [rn]?  Existence check: some closest instance of [rn] must itself
   satisfy [rn]'s own restricts and visible children-restrictions are not
   required (only the restrict chain filters). *)
let rec satisfies rctx ~aty id (rn : Tshape.node) =
  match rn.source with
  | None -> true (* a NEW node in a restrict pattern always "exists" *)
  | Some rty ->
      let kids = filter_value rctx rn (join_one rctx ~pty:aty id ~cty:rty) in
      Array.exists
        (fun kid ->
          List.for_all
            (fun sub -> satisfies rctx ~aty:rty kid sub)
            (rn.restrict_children @ rn.children))
        kids

let filter_restrict rctx ~aty (tn : Tshape.node) ids =
  match tn.restrict_children with
  | [] -> ids
  | rs ->
      Array.of_list
        (List.filter
           (fun id -> List.for_all (fun rn -> satisfies rctx ~aty id rn) rs)
           (Array.to_list ids))

(* The sibling-ordering extension: sort instances of [sty] by the text of
   each one's closest instances of the key type [kty], which the compiler
   resolved from the ORDER-BY label. *)
let sort_instances rctx ~sty ~kty ~desc ids =
  let key id =
    if kty = sty then read_value rctx id
    else
      String.concat ""
        (Array.to_list (Array.map (read_value rctx) (join_one rctx ~pty:sty id ~cty:kty)))
  in
  let decorated = Array.map (fun id -> (key id, id)) ids in
  let cmp (k1, _) (k2, _) =
    let c = compare k1 k2 in
    if desc then -c else c
  in
  Array.stable_sort cmp decorated;
  Array.map snd decorated

(* ------------------------------------------------------------------ *)
(* The output rules, one definition each: a handle per target node.    *)
(* The plan, the emit walk, Nav and the generated view read them here   *)
(* (fields documented in render.mli).                                   *)
(* ------------------------------------------------------------------ *)

type handle = {
  node : Tshape.node;
  name : string;
  attr : bool;
  join : int option;
  aty : int;
  below : handle list;
}

let rec handle tt ~parent_sourced ~aty ~join (n : Tshape.node) =
  let aty = Option.value join ~default:aty in
  let attr =
    parent_sourced && n.children = []
    && Option.fold ~none:false ~some:(Xml.Type_table.is_attribute tt) n.source
  in
  let child (c : Tshape.node) =
    let join =
      match c.source with
      | Some _ -> c.source
      | None -> List.find_map (fun (d : Tshape.node) -> d.source) c.children
    in
    handle tt ~parent_sourced:(Option.is_some n.source) ~aty ~join c
  in
  { node = n; name = Xml.Label.strip_at n.out_name; attr; join; aty;
    below = List.map child n.children }

let handles tt (shape : Tshape.t) =
  List.map
    (fun r -> handle tt ~parent_sourced:false ~aty:(-1) ~join:(first_sourced r) r)
    shape.roots

(* Does a sourced node keep less than a closest run, or than its type's
   row at a root, or in another order? *)
let selects (h : handle) =
  let n = h.node in
  Option.is_some n.source
  && (n.value_filter <> None || n.restrict_children <> [] || n.sort_key <> None)

(* What the node keeps: the value filter, then the restricts, then
   ORDER-BY. *)
let keep rctx (h : handle) ids =
  match h.node.source with
  | Some ty when selects h ->
      let n = h.node in
      let ids = filter_restrict rctx ~aty:ty n (filter_value rctx n ids) in
      Option.fold ~none:ids
        ~some:(fun (kty, desc) -> sort_instances rctx ~sty:ty ~kty ~desc ids)
        n.sort_key
  | _ -> ids

(* Attribute or element: one instance of an attribute-shaped child. *)
let as_attribute (c : handle) n = c.attr && n = 1

(* A forest of other than one tree is written inside a wrapper element. *)
let wrap ?(wrapper = "result") trees = if trees = 1 then None else Some wrapper

let count_trees roots = List.fold_left (fun n (_, ids) -> n + Array.length ids) 0 roots

let root_instances rctx (h : handle) =
  match h.join with
  | Some ty -> keep rctx h (cache rctx ty)
  | None -> [| -1 |] (* a purely NEW subtree renders once, empty *)

(* ------------------------------------------------------------------ *)
(* Planning: one pass computing, for every target-shape edge, the per-  *)
(* parent closest children ("pipelined joins").                         *)
(* ------------------------------------------------------------------ *)

(* A handle with its edge planned. *)
type planned = {
  h : handle;
  edge : edge option; (* None: an anchorless NEW node, once per key *)
  below : planned list; (* [h]'s children, in shape order *)
}

(* Sibling edges are planned in shape order, so I/O charges and profiler
   frames arrive in that order too.  A NEW node's anchor instances are its
   own edge, and its children join keyed on the anchor type (the anchor
   child itself resolves by the identity self-join). *)
let rec plan_node rctx (p : handle) ~ids =
  let plan_child (c : handle) =
    match (c.join, c.node.source) with
    | Some cty, Some _ -> plan_edge rctx c ~aty:p.aty ~ids ~cty
    | Some cty, None ->
        let e = build_edge rctx ~pty:p.aty ~parents:ids ~cty ~select:None in
        { h = c; edge = Some e; below = plan_node rctx c ~ids:e.kids }
    | None, _ -> { h = c; edge = None; below = plan_node rctx c ~ids }
  in
  List.map plan_child p.below

(* Each target edge's pipelined join is a [closest(parent->child)]
   region, nested to mirror the target shape, with parents in, closest
   pairs, and distinct children out. *)
and plan_edge rctx (c : handle) ~aty ~ids ~cty =
  if not (Xmobs.Ctx.recording rctx.ctx) then plan_edge_op rctx c ~aty ~ids ~cty
  else
    Xmobs.Ctx.region rctx.ctx
      (join_name (Store_.Shredded.types rctx.store) aty cty)
      (fun () ->
        Xmobs.Ctx.add_in rctx.ctx (Array.length ids);
        plan_edge_op rctx c ~aty ~ids ~cty)

and plan_edge_op rctx (c : handle) ~aty ~ids ~cty =
  let select =
    if selects c then
      Some (fun gs ge -> keep rctx c (Array.sub (cache rctx cty) gs (ge - gs)))
    else None
  in
  let e = build_edge rctx ~pty:aty ~parents:ids ~cty ~select in
  if Xmobs.Ctx.keeps_frames rctx.ctx then begin
    Array.iter
      (fun r ->
        if r >= 0 then Xmobs.Ctx.add_pairs rctx.ctx (e.offs.(r + 1) - e.offs.(r)))
      e.runs;
    Xmobs.Ctx.add_out rctx.ctx (Array.length e.kids)
  end;
  { h = c; edge = Some e; below = plan_node rctx c ~ids:e.kids }

let plan rctx h ids = { h; edge = None; below = plan_node rctx h ~ids }

(* ------------------------------------------------------------------ *)
(* Emission: one walk over the plan per output form.  Both read, per    *)
(* instance, its attribute-shaped children, then its own value, then    *)
(* its element children in shape order, so they charge the same reads.  *)
(* ------------------------------------------------------------------ *)

(* Each root's plan with its instances, planned one root at a time, and
   the wrapper a forest of other than one tree goes inside, when
   [wrapper] is given. *)
let roots_of ?wrapper rctx (shape : Tshape.t) =
  let roots =
    List.map
      (fun h -> (h, root_instances rctx h))
      (handles (Store_.Shredded.types rctx.store) shape)
  in
  (roots, Option.bind wrapper (fun wrapper -> wrap ~wrapper (count_trees roots)))

(* [f plan ids] on one root's plan and instances: a purely NEW root's
   one pseudo-instance outside the [emit] region, other roots' instances
   inside it. *)
let walk_root rctx f (root, ids) =
  let plan = plan rctx root ids in
  if Array.length ids = 1 && ids.(0) = -1 then f plan ids
  else Xmobs.Ctx.region rctx.ctx Xmobs.Layer.emit (fun () -> f plan ids)

(* What [tree rctx p id] reads, read again in its order, building
   nothing: the charge of a subtree handed out a second time. *)
let rec charge rctx (p : planned) id =
  if Option.is_some p.h.node.source then begin
    charge_attributes rctx id p.below;
    ignore (read_value rctx id)
  end;
  charge_elements rctx id p.below

and charge_attributes rctx id = function
  | [] -> ()
  | (c : planned) :: cs ->
      (match c.edge with
      | Some e when c.h.attr ->
          let r = run_of e id in
          if r >= 0 && as_attribute c.h (e.offs.(r + 1) - e.offs.(r)) then
            ignore (read_value rctx e.kids.(e.offs.(r)))
      | _ -> ());
      charge_attributes rctx id cs

and charge_elements rctx id = function
  | [] -> ()
  | (c : planned) :: cs ->
      (match c.edge with
      | None -> charge rctx c id
      | Some e ->
          let r = run_of e id in
          if r >= 0 then begin
            let lo = e.offs.(r) and hi = e.offs.(r + 1) in
            if not (as_attribute c.h (hi - lo)) then
              for i = lo to hi - 1 do
                charge rctx c e.kids.(i)
              done
          end);
      charge_elements rctx id cs

(* A kid whose subtree is not built yet: no tree the walk builds is this
   block. *)
let unbuilt = Xml.Tree.Text ""

(* Trees: [tree] returns instance [id]'s element, its lists built in
   order by tail-modulo-cons calls, so the walk allocates the tree and
   nothing else.  [id] is an instance of [p]'s anchor type; when [p] is
   sourced it is an instance of [p] itself.  Trees are immutable, so a
   kid in a run that several parents share is built once and the same
   tree handed to each of them; each later parent re-charges the reads
   that built it. *)
let rec tree rctx (p : planned) id =
  let sourced = Option.is_some p.h.node.source in
  let attrs = if sourced then tree_attributes rctx id p.below else [] in
  let value = if sourced then read_value rctx id else "" in
  let elements = tree_elements rctx id p.below in
  Xml.Tree.Element
    { name = p.h.name; attrs;
      children = (if value = "" then elements else Text value :: elements) }

and[@tail_mod_cons] tree_attributes rctx id = function
  | [] -> []
  | (c : planned) :: cs -> (
      match c.edge with
      | Some e when c.h.attr ->
          let r = run_of e id in
          if r >= 0 && as_attribute c.h (e.offs.(r + 1) - e.offs.(r)) then
            let v = read_value rctx e.kids.(e.offs.(r)) in
            (c.h.name, v) :: tree_attributes rctx id cs
          else tree_attributes rctx id cs
      | _ -> tree_attributes rctx id cs)

and[@tail_mod_cons] tree_elements rctx id = function
  | [] -> []
  | (c : planned) :: cs -> (
      match c.edge with
      | None ->
          (* anchorless NEW: once per key *)
          let t = tree rctx c id in
          t :: tree_elements rctx id cs
      | Some e ->
          let r = run_of e id in
          if r < 0 then tree_elements rctx id cs
          else
            let lo = e.offs.(r) and hi = e.offs.(r + 1) in
            if as_attribute c.h (hi - lo) then tree_elements rctx id cs
            else tree_run rctx id c e lo hi cs)

(* The elements of [c]'s run [[i, hi)] of [e.kids], then those of [id]'s
   remaining children [cs]. *)
and[@tail_mod_cons] tree_run rctx id c e i hi cs =
  if i = hi then tree_elements rctx id cs
  else
    let t = if e.shared then kid_tree rctx c e i else tree rctx c e.kids.(i) in
    t :: tree_run rctx id c e (i + 1) hi cs

(* Kid [i] of a shared edge: built on its first visit, re-charged on
   every later one. *)
and kid_tree rctx c e i =
  if Array.length e.trees = 0 then e.trees <- Array.make (Array.length e.kids) unbuilt;
  let t = e.trees.(i) in
  if t != unbuilt then begin
    charge rctx c e.kids.(i);
    t
  end
  else begin
    let t = tree rctx c e.kids.(i) in
    e.trees.(i) <- t;
    t
  end

let[@tail_mod_cons] rec forest rctx plan ids i =
  if i = Array.length ids then []
  else
    let t = tree rctx plan ids.(i) in
    t :: forest rctx plan ids (i + 1)

(* The roots' trees in order; only a root before the last is copied. *)
let rec root_trees rctx = function
  | [] -> []
  | r :: roots -> (
      let ts = walk_root rctx (fun plan ids -> forest rctx plan ids 0) r in
      match roots with [] -> ts | _ -> ts @ root_trees rctx roots)

let trees ?wrapper rctx shape =
  let roots, wrapper = roots_of ?wrapper rctx shape in
  let trees = root_trees rctx roots in
  match wrapper with
  | None -> trees
  | Some name -> [ Xml.Tree.Element { name; attrs = []; children = trees } ]

let to_trees store shape = trees (make_rctx store) shape

let to_tree ?ctx ?(wrapper = "result") store shape =
  let rctx = make_rctx ?ctx store in
  Xmobs.Ctx.region ctx Xmobs.Layer.render (fun () -> List.hd (trees ~wrapper rctx shape))

(* Bytes: the same walk, writing to an [Xml.Printer.Writer], which
   escapes each value in place from the store's own string.  The walk
   over [p.below] is two recursive functions, not closures, so that an
   element allocates nothing. *)
module W = Xml.Printer.Writer

let rec write_element rctx w (p : planned) id =
  W.open_element w p.h.name;
  if Option.is_some p.h.node.source then begin
    write_attributes rctx w id p.below;
    let v = read_value rctx id in
    if String.length v > 0 then W.text w v 0 (String.length v)
  end;
  write_elements rctx w id p.below;
  W.close_element w p.h.name

and write_attributes rctx w id = function
  | [] -> ()
  | (c : planned) :: cs ->
      (match c.edge with
      | Some e when c.h.attr ->
          let r = run_of e id in
          if r >= 0 && as_attribute c.h (e.offs.(r + 1) - e.offs.(r)) then begin
            let v = read_value rctx e.kids.(e.offs.(r)) in
            W.attribute w c.h.name v 0 (String.length v)
          end
      | _ -> ());
      write_attributes rctx w id cs

and write_elements rctx w id = function
  | [] -> ()
  | (c : planned) :: cs ->
      (match c.edge with
      | None -> write_element rctx w c id (* anchorless NEW: once per key *)
      | Some e ->
          let r = run_of e id in
          if r >= 0 then begin
            let lo = e.offs.(r) and hi = e.offs.(r + 1) in
            if not (as_attribute c.h (hi - lo)) then
              for i = lo to hi - 1 do
                write_element rctx w c e.kids.(i)
              done
          end);
      write_elements rctx w id cs

let emit ?wrapper rctx w shape =
  let roots, wrapper = roots_of ?wrapper rctx shape in
  Option.iter (W.open_element w) wrapper;
  List.iter
    (walk_root rctx (fun plan ids -> Array.iter (fun id -> write_element rctx w plan id) ids))
    roots;
  Option.iter (W.close_element w) wrapper

(* [flush], when given, is handed the buffer's bytes after each element
   closes, and the buffer is cleared.  The bytes are charged as one write
   once the walk is done, inside the [render] region, whose span so carries them
   as [bytes_written]. *)
let write ?ctx ?wrapper ?indent store shape ?flush buf =
  let start = Buffer.length buf and flushed = ref 0 in
  let on_close =
    Option.map
      (fun f b ->
        flushed := !flushed + Buffer.length b;
        f (Buffer.contents b);
        Buffer.clear b)
      flush
  in
  let w = W.create ?indent ?on_close buf in
  let bytes =
    let rctx = make_rctx ?ctx store in
    Xmobs.Ctx.region ctx Xmobs.Layer.render @@ fun () ->
    emit ?wrapper rctx w shape;
    let bytes = !flushed + Buffer.length buf - start in
    Store_.Io_stats.charge_write ?ctx (Store_.Shredded.stats store) bytes;
    bytes
  in
  { elements = W.elements w; bytes }

let stream store shape sink = write store shape ~flush:sink (Buffer.create 1024)

let to_buffer ?ctx ?wrapper ?indent store shape buf =
  write ?ctx ?wrapper ?indent store shape buf

type instance = { id : int; parent : int; dewey : Dewey.t; source : int }

(* Walk the plan in emission order, but record an instance per target
   node instead of building trees: its output preorder rank, its output
   parent's, its Dewey number and its source.  Child slot numbering
   mirrors [Doc.of_tree]: every emitted child (attributes included) takes
   the next Dewey slot. *)
let instances_in rctx (shape : Tshape.t) =
  let acc : (int, instance Vec.t) Hashtbl.t = Hashtbl.create 16 in
  let record (tn : Tshape.node) inst =
    let v =
      match Hashtbl.find_opt acc tn.uid with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.replace acc tn.uid v;
          v
    in
    ignore (Vec.push v inst)
  in
  let next = ref 0 in
  let rec walk (p : planned) id ~parent dewey =
    let me = !next in
    incr next;
    record p.h.node
      { id = me; parent; dewey;
        source = (match p.h.node.source with Some _ -> id | None -> -1) };
    let slot = ref 0 in
    let visit c cid =
      incr slot;
      walk c cid ~parent:me (Dewey.child dewey !slot)
    in
    List.iter
      (fun (c : planned) ->
        match c.edge with
        | None -> visit c id
        | Some e ->
            let r = run_of e id in
            if r >= 0 then
              for i = e.offs.(r) to e.offs.(r + 1) - 1 do
                visit c e.kids.(i)
              done)
      p.below
  in
  let root_index = ref 0 in
  List.iter
    (fun h ->
      let ids = root_instances rctx h in
      let plan = plan rctx h ids in
      Array.iter
        (fun id ->
          incr root_index;
          walk plan id ~parent:(-1) [| !root_index |])
        ids)
    (handles (Store_.Shredded.types rctx.store) shape);
  let out = ref [] in
  Tshape.iter shape (fun tn ->
      let insts =
        match Hashtbl.find_opt acc tn.uid with
        | Some v -> Vec.to_array v
        | None -> [||]
      in
      out := (tn, insts) :: !out);
  List.rev !out

let instances store shape = instances_in (make_rctx store) shape

module Nav = struct
  type nonrec handle = handle
  type nonrec t = {
    rctx : rctx;
    handles : handle list;
    roots : (handle * int array) list option ref;
        (* selected on first use, once per [t] and its [charging] views *)
  }

  (* Charges nothing to a request context: [charging] gives a request
     its own view. *)
  let create store shape =
    { rctx = { store; caches = Hashtbl.create 64; edges = Hashtbl.create 16; ctx = None };
      handles = handles (Store_.Shredded.types store) shape;
      roots = ref None }

  let charging t ctx = { t with rctx = { t.rctx with ctx } }

  let ctx t = t.rctx.ctx

  let roots t =
    match !(t.roots) with
    | Some r -> r
    | None ->
        let r = List.map (fun h -> (h, root_instances t.rctx h)) t.handles in
        t.roots := Some r;
        r
  let wrapper roots = wrap (count_trees roots)

  (* One edge of the plan for one instance: the child's join, keyed on
     this node's anchor type, and what the child keeps of its run. *)
  let edge t (h : handle) id (c : handle) =
    match c.join with
    | Some cty -> keep t.rctx c (join_one t.rctx ~pty:h.aty id ~cty)
    | None -> [| id |]

  let[@tail_mod_cons] rec child_runs t (h : handle) id = function
    | [] -> []
    | c :: cs ->
        let kids = edge t h id c in
        (c, kids) :: child_runs t h id cs

  let children t (h : handle) id = child_runs t h id h.below

  let value t (h : handle) id =
    match h.node.source with
    | Some _ when id >= 0 -> read_value t.rctx id
    | _ -> ""

  let attributes t (h : handle) id =
    List.filter_map
      (fun (c : handle) ->
        if not c.attr then None
        else
          let kids = edge t h id c in
          if as_attribute c (Array.length kids) then Some (c.name, read_value t.rctx kids.(0))
          else None)
      h.below

  (* The element-shaped runs among [cs], [h]'s child handles; with
     [name], only the handles of that name are joined. *)
  let[@tail_mod_cons] rec element_runs t name (h : handle) id = function
    | [] -> []
    | (c : handle) :: cs -> (
        match name with
        | Some m when m <> c.name -> element_runs t name h id cs
        | _ ->
            let kids = edge t h id c in
            if as_attribute c (Array.length kids) then element_runs t name h id cs
            else (c, kids) :: element_runs t name h id cs)

  let element_children t ?name (h : handle) id = element_runs t name h id h.below

  (* The attribute-shaped children among an instance's [children], with
     their values. *)
  let[@tail_mod_cons] rec attribute_values t = function
    | [] -> []
    | ((c : handle), ids) :: rest ->
        if as_attribute c (Array.length ids) then
          let v = read_value t.rctx ids.(0) in
          (c.name, v) :: attribute_values t rest
        else attribute_values t rest

  (* One instance's subtree, built from the edges [t] has resolved: each
     child edge is joined once per instance ([children]), and the element
     holds what the emit walk writes for the instance, in its order: the
     attribute-shaped children, its own text, its element children. *)
  let rec materialize t (h : handle) id =
    let kids = children t h id in
    let sourced = Option.is_some h.node.source in
    let attrs = if sourced then attribute_values t kids else [] in
    let text = if sourced then read_value t.rctx id else "" in
    let elements = elements t kids in
    Xml.Tree.Element
      { name = h.name; attrs; children = (if text = "" then elements else Text text :: elements) }

  (* The element children of [kids], in shape order, each built as it is
     reached. *)
  and[@tail_mod_cons] elements t = function
    | [] -> []
    | ((c : handle), ids) :: rest ->
        if as_attribute c (Array.length ids) then elements t rest else run t c ids 0 rest

  and[@tail_mod_cons] run t c ids i rest =
    if i = Array.length ids then elements t rest
    else
      let e = materialize t c ids.(i) in
      e :: run t c ids (i + 1) rest

  (* A node with no child handles is a leaf: its string value is its own
     value, read once. *)
  let deep_text t (h : handle) id =
    match h.below with
    | [] -> value t h id
    | _ ->
        let b = Buffer.create 32 in
        let rec add (h : handle) id =
          if Option.is_some h.node.source && id >= 0 then
            Buffer.add_string b (read_value t.rctx id);
          List.iter (fun (c, kids) -> Array.iter (add c) kids) (element_children t h id)
        in
        add h id;
        Buffer.contents b
end

type edge_explanation = {
  parent : string;
  child : string;
  type_distance : int;
  join_level : int;
  parent_instances : int;
  child_instances : int;
  pairs : int;
  orphans : int;
  predicted : Xmutil.Card.t;
}

(* Def. 6 per sourced edge, from the dataguide alone: the path cardinality
   per parent and the parent type's instance count. *)
let predicted_edges guide (shape : Tshape.t) =
  let out = ref [] in
  let rec walk (tn : Tshape.node) =
    Option.iter
      (fun pty ->
        List.iter
          (fun (c : Tshape.node) ->
            Option.iter
              (fun cty ->
                let card = Xml.Dataguide.path_card guide pty cty in
                out := (pty, cty, card, Xml.Dataguide.instance_count guide pty) :: !out)
              c.source)
          tn.children)
      tn.source;
    List.iter walk tn.children
  in
  List.iter walk shape.roots;
  List.rev !out

(* Each edge is a [closest(parent->child)] region, as a render's join of
   the edge is, with the parents in, the pairs and the matched children
   out. *)
let explain ?ctx store (shape : Tshape.t) =
  let rctx = make_rctx ?ctx store in
  let tt = Store_.Shredded.types store in
  let explain_edge (pty, cty, card, parents) =
    let pc = cache rctx pty in
    let cc = cache rctx cty in
    let l = Store_.Shredded.join_level store pty cty in
    let runs, groups = closest_runs rctx ~pty ~parents:pc ~cty in
    (* Runs are disjoint, and shared ones adjacent. *)
    let pairs = ref 0 and matched = ref 0 and last = ref (-1) in
    Array.iter
      (fun g ->
        if g >= 0 then begin
          let len = groups.Closest.offs.(g + 1) - groups.offs.(g) in
          pairs := !pairs + len;
          if g <> !last then matched := !matched + len;
          last := g
        end)
      runs;
    Xmobs.Ctx.add_in ctx (Array.length pc);
    Xmobs.Ctx.add_pairs ctx !pairs;
    Xmobs.Ctx.add_out ctx !matched;
    {
      parent = Xml.Type_table.qname tt pty;
      child = Xml.Type_table.qname tt cty;
      type_distance = Xml.Type_table.depth tt pty + Xml.Type_table.depth tt cty - (2 * l);
      join_level = l;
      parent_instances = Array.length pc;
      child_instances = Array.length cc;
      pairs = !pairs;
      orphans = Array.length cc - !matched;
      predicted = Xmutil.Card.scale card parents;
    }
  in
  List.map
    (fun ((pty, cty, _, _) as e) ->
      if not (Xmobs.Ctx.recording ctx) then explain_edge e
      else Xmobs.Ctx.region ctx (join_name tt pty cty) (fun () -> explain_edge e))
    (predicted_edges (Store_.Shredded.guide store) shape)

let pp_explanation fmt entries =
  List.iter
    (fun e ->
      Format.fprintf fmt
        "%s -> %s: typeDistance %d, join at level %d; %d parents x %d \
         children -> %d closest pairs (predicted %s, q-error %.2f)%s@."
        e.parent e.child e.type_distance e.join_level e.parent_instances
        e.child_instances e.pairs
        (Xmutil.Card.to_string e.predicted)
        (Xmutil.Card.qerror e.predicted e.pairs)
        (if e.orphans > 0 then
           Printf.sprintf " (%d children have no closest parent)" e.orphans
         else ""))
    entries

let iter_closest rctx t u f =
  let pc = cache rctx t in
  let runs, groups = closest_runs rctx ~pty:t ~parents:pc ~cty:u in
  let kids = cache rctx u in
  Array.iteri
    (fun k g ->
      if g >= 0 then
        for i = groups.Closest.offs.(g) to groups.offs.(g + 1) - 1 do
          f pc.(k) kids.(i)
        done)
    runs

let instances_with_closest ?ctx store shape =
  let rctx = make_rctx ?ctx store in
  (instances_in rctx shape, iter_closest rctx)

let closest_pairs store t u =
  let out = ref [] in
  iter_closest (make_rctx store) t u (fun p c -> out := (p, c) :: !out);
  List.rev !out
