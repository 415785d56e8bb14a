open Xmutil

type stats = { elements : int; bytes : int }

module Store_ = Store (* the OCaml library, not a value *)

type type_cache = {
  ids : int array; (* TypeToSequence row: node ids in document order *)
  deweys : Dewey.t array; (* aligned with [ids] *)
}

(* One per render, [Nav.t], [explain] or [iter_closest] call, used by the
   thread that made it: the cache needs no lock. *)
type rctx = {
  store : Store_.Shredded.t;
  caches : (int, type_cache) Hashtbl.t;
}

let make_rctx store = { store; caches = Hashtbl.create 64 }

let cache rctx ty =
  match Hashtbl.find_opt rctx.caches ty with
  | Some c -> c
  | None ->
      (* Join-side data only: the sequence row and the columnar Dewey
         sidecar.  No node record is decoded here — emission reads the
         values of the instances it actually outputs. *)
      let c =
        { ids = Store_.Shredded.sequence rctx.store ty;
          deweys = Store_.Shredded.dewey_column rctx.store ty }
      in
      Hashtbl.replace rctx.caches ty c;
      c

(* The first index in [[lo, hi)] of an ascending id row holding at least
   [x]: bisected, or galloped forward from [lo] as [Dewey.seek_run] does
   over runs. *)
let rec bisect_id (a : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) < x then bisect_id a x (mid + 1) hi else bisect_id a x lo mid

let rec gallop_id (a : int array) x prev step hi =
  let q = prev + step in
  if q < hi && a.(q) < x then gallop_id a x q (2 * step) hi
  else bisect_id a x (prev + 1) (Int.min hi (q + 1))

let seek_id a x lo hi = if lo >= hi || a.(lo) >= x then lo else gallop_id a x lo 1 hi

(* The closest join (CLOSE), the one kernel every join goes through.  The
   child side is the GroupedSequence table (Fig. 8): the child type's
   sequence grouped into runs of equal [l]-prefix, so a parent's closest
   children are exactly the run sharing its [l]-prefix.  [parents] are
   instances of [pty] in ascending (document) order; the result holds, per
   parent, the index of its run in the returned groups, or -1 when it has
   no closest child.  Both searches gallop forward from the previous
   parent's answer, so a batch is one forward pass over the parent row and
   the runs. *)
let closest_runs rctx ~pty ~parents ~cty =
  let pc = cache rctx pty in
  let cc = cache rctx cty in
  let l = Store_.Shredded.join_level rctx.store pty cty in
  let n = Array.length parents in
  let runs = Array.make n (-1) in
  if Array.length cc.ids = 0 || l = 0 then (runs, [||])
  else begin
    let groups = Store_.Shredded.grouped_sequence rctx.store cty ~level:l in
    let pos = ref 0 and g = ref 0 in
    for k = 0 to n - 1 do
      (* The first parent has no previous answer to gallop from. *)
      let first = k = 0 in
      pos :=
        (if first then bisect_id else seek_id)
          pc.ids parents.(k) !pos (Array.length pc.ids);
      if !pos < Array.length pc.ids && pc.ids.(!pos) = parents.(k) then begin
        let pd = pc.deweys.(!pos) in
        if Array.length pd >= l then begin
          g :=
            if first then Dewey.bisect_run ~level:l cc.deweys groups pd
            else Dewey.seek_run ~level:l cc.deweys groups pd !g;
          if !g < Array.length groups
             && Dewey.compare_prefix l cc.deweys.(fst groups.(!g)) pd = 0
          then runs.(k) <- !g
        end
      end
    done;
    (runs, groups)
  end

(* One parent's closest children: the kernel on a single parent, for
   navigation-style access. *)
let join_one rctx ~pty pid ~cty =
  match closest_runs rctx ~pty ~parents:[| pid |] ~cty with
  | [| g |], groups when g >= 0 ->
      let gs, ge = groups.(g) in
      Array.sub (cache rctx cty).ids gs (ge - gs)
  | _ -> [||]

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
   looked up. *)
type edge = {
  keys : int array;
  runs : int array;
  offs : int array;
  kids : int array;
  mutable cur : int;
}

(* [key]'s run in [e], or -1.  A walk meets an edge's keys in ascending
   order unless an ORDER-BY or a shared run sends it back, so the key at
   the cursor and the one after it are tried before a bisection. *)
let run_of e key =
  let n = Array.length e.keys and c = e.cur in
  let k =
    if c < n && e.keys.(c) = key then c
    else if c + 1 < n && e.keys.(c + 1) = key then c + 1
    else bisect_id e.keys key 0 n
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
   for the read again. *)
let build_edge rctx ~pty ~parents ~cty ~select =
  let keys = ascending parents in
  let runs, groups = closest_runs rctx ~pty ~parents:keys ~cty in
  let ids = (cache rctx cty).ids in
  (* Runs are nondecreasing over ascending keys: equal ones are adjacent. *)
  let parts = ref [] and nruns = ref 0 and total = ref 0 and last = ref (-1) in
  Array.iteri
    (fun k g ->
      if g >= 0 then begin
        let gs, ge = groups.(g) in
        let part =
          match select with
          | None -> (ids, gs, ge - gs)
          | Some f ->
              let sel = f gs ge in
              (sel, 0, Array.length sel)
        in
        if g <> !last then begin
          let _, _, len = part in
          parts := part :: !parts;
          total := !total + len;
          incr nruns;
          last := g
        end;
        runs.(k) <- !nruns - 1
      end)
    runs;
  let offs = Array.make (!nruns + 1) 0 and kids = Array.make !total 0 in
  List.iteri
    (fun r (src, start, len) ->
      Array.blit src start kids offs.(r) len;
      offs.(r + 1) <- offs.(r) + len)
    (List.rev !parts);
  { keys; runs; offs; kids; cur = 0 }

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
           (fun id -> Store_.Shredded.value rctx.store id = v)
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
    if kty = sty then Store_.Shredded.value rctx.store id
    else
      String.concat ""
        (Array.to_list
           (Array.map (Store_.Shredded.value rctx.store) (join_one rctx ~pty:sty id ~cty:kty)))
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
  | Some ty -> keep rctx h (cache rctx ty).ids
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

(* Profiled wrapper: each target edge's pipelined join appears in the
   profile as a [closest(parent->child)] frame, nested to mirror the target
   shape, with parents in, closest pairs, and distinct children out. *)
and plan_edge rctx (c : handle) ~aty ~ids ~cty =
  if not (Xmobs.Profile.profiling ()) then plan_edge_op rctx c ~aty ~ids ~cty
  else
    let tt = Store_.Shredded.types rctx.store in
    Xmobs.Profile.op
      (Printf.sprintf "closest(%s->%s)" (Xml.Type_table.qname tt aty)
         (Xml.Type_table.qname tt cty))
      (fun () ->
        Xmobs.Profile.add_in (Array.length ids);
        plan_edge_op rctx c ~aty ~ids ~cty)

and plan_edge_op rctx (c : handle) ~aty ~ids ~cty =
  let select =
    if selects c then
      Some (fun gs ge -> keep rctx c (Array.sub (cache rctx cty).ids gs (ge - gs)))
    else None
  in
  let e = build_edge rctx ~pty:aty ~parents:ids ~cty ~select in
  if Xmobs.Profile.profiling () then
    Array.iter
      (fun r ->
        if r >= 0 then Xmobs.Profile.add_pairs (e.offs.(r + 1) - e.offs.(r)))
      e.runs;
  Xmobs.Profile.add_out (Array.length e.kids);
  { h = c; edge = Some e; below = plan_node rctx c ~ids:e.kids }

let plan rctx h ids = { h; edge = None; below = plan_node rctx h ~ids }

(* ------------------------------------------------------------------ *)
(* Emission: one walk over the plan, writing through a sink.           *)
(* ------------------------------------------------------------------ *)

(* What the walk writes to: the calls [Xml.Printer.Writer] and
   [Xml.Tree.Builder] both accept.  Values are slices of the store's
   packed text, so the byte writer escapes them in place. *)
module type SINK = sig
  type t

  val open_element : t -> string -> unit
  val attribute : t -> string -> string -> int -> int -> unit
  val text : t -> string -> int -> int -> unit
  val close_element : t -> string -> unit
end

let in_render_span f = Xmobs.Obs.phase "render" @@ fun () -> Xmobs.Profile.op "render" f

module Emit (S : SINK) = struct
  let text sink s pos len = if len > 0 then S.text sink s pos len

  (* [id] is an instance of [p]'s anchor type; when [p] is sourced it is an
     instance of [p] itself.  Attributes come first, then the node's own
     text, then its element children in shape order. *)
  let rec walk store sink (p : planned) id =
    S.open_element sink p.h.name;
    if Option.is_some p.h.node.source then begin
      List.iter
        (fun (c : planned) ->
          match c.edge with
          | Some e when c.h.attr ->
              let r = run_of e id in
              if r >= 0 && as_attribute c.h (e.offs.(r + 1) - e.offs.(r)) then
                Store_.Shredded.value_slice store e.kids.(e.offs.(r))
                  (fun sink s pos len -> S.attribute sink c.h.name s pos len)
                  sink
          | _ -> ())
        p.below;
      Store_.Shredded.value_slice store id text sink
    end;
    List.iter
      (fun (c : planned) ->
        match c.edge with
        | None -> walk store sink c id (* anchorless NEW: once per key *)
        | Some e ->
            let r = run_of e id in
            if r >= 0 then begin
              let lo = e.offs.(r) and hi = e.offs.(r + 1) in
              if not (as_attribute c.h (hi - lo)) then
                for i = lo to hi - 1 do
                  walk store sink c e.kids.(i)
                done
            end)
      p.below;
    S.close_element sink p.h.name

  (* Plan each root of [shape] and walk its instances, one root at a
     time.  Each root instance is one tree of the output forest; with
     [wrapper], a forest of other than one tree is written inside a
     [wrapper] element, so the roots' instances are found before the
     first call.  [emit] runs in the caller's span; [render] opens the
     [render] span and frame around it. *)
  let emit ?wrapper store sink (shape : Tshape.t) =
    let rctx = make_rctx store in
    let roots =
      List.map
        (fun h -> (h, root_instances rctx h))
        (handles (Store_.Shredded.types store) shape)
    in
    let wrapper = Option.bind wrapper (fun wrapper -> wrap ~wrapper (count_trees roots)) in
    Option.iter (S.open_element sink) wrapper;
    List.iter
      (fun (root, ids) ->
        let plan = plan rctx root ids in
        if Array.length ids = 1 && ids.(0) = -1 then walk store sink plan (-1)
        else
          Xmobs.Profile.op "emit" (fun () ->
              Array.iter (fun id -> walk store sink plan id) ids))
      roots;
    Option.iter (S.close_element sink) wrapper

  let render ?wrapper store sink shape = in_render_span (fun () -> emit ?wrapper store sink shape)
end

module Tree_emit = Emit (Xml.Tree.Builder)
module Bytes_emit = Emit (Xml.Printer.Writer)

let to_trees store shape =
  let b = Xml.Tree.Builder.create () in
  Tree_emit.render store b shape;
  Xml.Tree.Builder.trees b

let to_tree ?(wrapper = "result") store shape =
  let b = Xml.Tree.Builder.create () in
  Tree_emit.render ~wrapper store b shape;
  List.hd (Xml.Tree.Builder.trees b)

(* [flush], when given, is handed the buffer's bytes after each element
   closes, and the buffer is cleared.  The bytes are charged as one write
   once the walk is done, inside the [render] span, which so carries them
   as [bytes_written]. *)
let write ?wrapper ?indent store shape ?flush buf =
  let start = Buffer.length buf and flushed = ref 0 in
  let on_close =
    Option.map
      (fun f b ->
        flushed := !flushed + Buffer.length b;
        f (Buffer.contents b);
        Buffer.clear b)
      flush
  in
  let w = Xml.Printer.Writer.create ?indent ?on_close buf in
  let bytes =
    in_render_span @@ fun () ->
    Bytes_emit.emit ?wrapper store w shape;
    let bytes = !flushed + Buffer.length buf - start in
    Store_.Io_stats.charge_write (Store_.Shredded.stats store) bytes;
    bytes
  in
  { elements = Xml.Printer.Writer.elements w; bytes }

let stream store shape sink = write store shape ~flush:sink (Buffer.create 1024)

let to_buffer ?wrapper ?indent store shape buf =
  let st = write ?wrapper ?indent store shape buf in
  if Xmobs.Metrics.is_enabled () then begin
    Xmobs.Metrics.inc ~by:st.elements "render.elements";
    Xmobs.Metrics.inc ~by:st.bytes "render.bytes"
  end;
  st

type instance = { dewey : Dewey.t; source : int }

(* Walk the plan in emission order, but record (dewey, source) per
   target node instead of building trees.  Child slot numbering mirrors
   [Doc.of_tree]: every emitted child (attributes included) takes the next
   Dewey slot. *)
let instances store (shape : Tshape.t) =
  let rctx = make_rctx store in
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
  let rec walk (p : planned) id dewey =
    record p.h.node
      { dewey; source = (match p.h.node.source with Some _ -> id | None -> -1) };
    let slot = ref 0 in
    let visit c cid =
      incr slot;
      walk c cid (Dewey.child dewey !slot)
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
          walk plan id [| !root_index |])
        ids)
    (handles (Store_.Shredded.types store) shape);
  let out = ref [] in
  Tshape.iter shape (fun tn ->
      let insts =
        match Hashtbl.find_opt acc tn.uid with
        | Some v -> Vec.to_array v
        | None -> [||]
      in
      out := (tn, insts) :: !out);
  List.rev !out

module Nav = struct
  type nonrec handle = handle
  type nonrec t = {
    rctx : rctx;
    handles : handle list;
    roots : (handle * int array) list option Atomic.t;
        (* selected on first use, once per [t]: two threads racing here
           both select the same roots, where forcing one [Lazy.t] from two
           threads would raise [Lazy.Undefined] *)
  }

  let create store shape =
    { rctx = make_rctx store;
      handles = handles (Store_.Shredded.types store) shape;
      roots = Atomic.make None }

  let roots t =
    match Atomic.get t.roots with
    | Some r -> r
    | None ->
        let r = List.map (fun h -> (h, root_instances t.rctx h)) t.handles in
        Atomic.set t.roots (Some r);
        r
  let wrapper roots = wrap (count_trees roots)

  (* One level of the plan for one instance: each child's join, keyed on
     this node's anchor type, and what the child keeps of its run. *)
  let children t (h : handle) id =
    List.map
      (fun (c : handle) ->
        match c.join with
        | Some cty -> (c, keep t.rctx c (join_one t.rctx ~pty:h.aty id ~cty))
        | None -> (c, [| id |]))
      h.below

  let value t (h : handle) id =
    match h.node.source with
    | Some _ when id >= 0 -> Store_.Shredded.value t.rctx.store id
    | _ -> ""

  let attributes t h id =
    List.filter_map
      (fun ((c : handle), kids) ->
        if as_attribute c (Array.length kids) then
          Some (c.name, Store_.Shredded.value t.rctx.store kids.(0))
        else None)
      (children t h id)

  let element_children t h id =
    List.filter
      (fun ((c : handle), kids) -> not (as_attribute c (Array.length kids)))
      (children t h id)

  let materialize t h id =
    let b = Xml.Tree.Builder.create () in
    Tree_emit.walk t.rctx.store b (plan t.rctx h [| id |]) id;
    List.hd (Xml.Tree.Builder.trees b)

  let rec deep_text t h id =
    let b = Buffer.create 32 in
    Buffer.add_string b (value t h id);
    List.iter
      (fun (c, kids) -> Array.iter (fun k -> Buffer.add_string b (deep_text t c k)) kids)
      (element_children t h id);
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

let explain store (shape : Tshape.t) =
  let rctx = make_rctx store in
  let tt = Store_.Shredded.types store in
  List.map
    (fun (pty, cty, card, parents) ->
      let pc = cache rctx pty in
      let cc = cache rctx cty in
      let l = Store_.Shredded.join_level store pty cty in
      let runs, groups = closest_runs rctx ~pty ~parents:pc.ids ~cty in
      (* Runs are disjoint, and shared ones adjacent. *)
      let pairs = ref 0 and matched = ref 0 and last = ref (-1) in
      Array.iter
        (fun g ->
          if g >= 0 then begin
            let gs, ge = groups.(g) in
            pairs := !pairs + (ge - gs);
            if g <> !last then matched := !matched + (ge - gs);
            last := g
          end)
        runs;
      {
        parent = Xml.Type_table.qname tt pty;
        child = Xml.Type_table.qname tt cty;
        type_distance = Xml.Type_table.depth tt pty + Xml.Type_table.depth tt cty - (2 * l);
        join_level = l;
        parent_instances = Array.length pc.ids;
        child_instances = Array.length cc.ids;
        pairs = !pairs;
        orphans = Array.length cc.ids - !matched;
        predicted = Xmutil.Card.scale card parents;
      })
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

let iter_closest store t u f =
  let rctx = make_rctx store in
  let pc = cache rctx t in
  let runs, groups = closest_runs rctx ~pty:t ~parents:pc.ids ~cty:u in
  let kids = (cache rctx u).ids in
  Array.iteri
    (fun k g ->
      if g >= 0 then
        for i = fst groups.(g) to snd groups.(g) - 1 do
          f pc.ids.(k) kids.(i)
        done)
    runs

let closest_pairs store t u =
  let out = ref [] in
  iter_closest store t u (fun p c -> out := (p, c) :: !out);
  List.rev !out
