open Xmutil

type stats = { elements : int; bytes : int }

module Store_ = Store (* the OCaml library, not a value *)

(* One per render, [Nav.t], [explain] or [iter_closest] call, used by
   one thread at a time: the caches need no lock.  [ctx] is the request
   context every store read of the operation is charged to, the one
   handed to the operation. *)
type rctx = {
  store : Store_.Shredded.t;
  caches : (int, int array) Hashtbl.t;
      (* type -> its TypeToSequence row: node ids in document order *)
  edges : (int, joined) Hashtbl.t;
      (* [(pty lsl 32) lor cty] -> that edge resolved (type ids are far
         below 2^31) *)
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
  let key = (pty lsl 32) lor cty in
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
     so one pass counts the distinct ones and their entries. *)
  let nkeys = Array.length runs in
  let nruns = ref 0 and entries = ref 0 and last = ref (-1) in
  for k = 0 to nkeys - 1 do
    let g = runs.(k) in
    if g >= 0 && g <> !last then begin
      incr nruns;
      entries := !entries + groups.Closest.offs.(g + 1) - groups.offs.(g);
      last := g
    end
  done;
  let nruns = !nruns in
  match select with
  | None when nruns > 0 && nruns = Array.length groups.keys ->
      (* Every run is used, in order: key [k]'s run is already its index
         among the distinct runs. *)
      { keys; runs; offs = groups.offs; kids = ids; cur = 0 }
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
      { keys; runs; offs; kids; cur = 0 }
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
      { keys; runs; offs; kids; cur = 0 }

(* Without parents the edge is empty and nothing is resolved or charged,
   so a node that keeps no instance joins nothing below it. *)
let build_edge rctx ~pty ~parents ~cty ~select =
  if Array.length parents = 0 then
    { keys = [||]; runs = [||]; offs = [| 0 |]; kids = [||]; cur = 0 }
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

module Emit (S : SINK) = struct
  let text sink () s pos len = if len > 0 then S.text sink s pos len

  (* [id] is an instance of [p]'s anchor type; when [p] is sourced it is an
     instance of [p] itself.  Attributes come first, then the node's own
     text, then its element children in shape order.  The walk over
     [p.below] is two recursive functions, not closures, so that an
     element allocates nothing the sink does not keep. *)
  let rec walk rctx sink (p : planned) id =
    S.open_element sink p.h.name;
    if Option.is_some p.h.node.source then begin
      attributes rctx sink id p.below;
      Store_.Shredded.value_slice ?ctx:rctx.ctx rctx.store id text sink ()
    end;
    elements rctx sink id p.below;
    S.close_element sink p.h.name

  and attributes rctx sink id = function
    | [] -> ()
    | (c : planned) :: cs ->
        (match c.edge with
        | Some e when c.h.attr ->
            let r = run_of e id in
            if r >= 0 && as_attribute c.h (e.offs.(r + 1) - e.offs.(r)) then
              Store_.Shredded.value_slice ?ctx:rctx.ctx rctx.store e.kids.(e.offs.(r))
                S.attribute sink c.h.name
        | _ -> ());
        attributes rctx sink id cs

  and elements rctx sink id = function
    | [] -> ()
    | (c : planned) :: cs ->
        (match c.edge with
        | None -> walk rctx sink c id (* anchorless NEW: once per key *)
        | Some e ->
            let r = run_of e id in
            if r >= 0 then begin
              let lo = e.offs.(r) and hi = e.offs.(r + 1) in
              if not (as_attribute c.h (hi - lo)) then
                for i = lo to hi - 1 do
                  walk rctx sink c e.kids.(i)
                done
            end);
        elements rctx sink id cs

  (* Plan each root of [shape] and walk its instances, one root at a
     time.  Each root instance is one tree of the output forest; with
     [wrapper], a forest of other than one tree is written inside a
     [wrapper] element, so the roots' instances are found before the
     first call.  [emit] runs in the caller's region; [render] opens the
     [render] region around it. *)
  let emit ?wrapper rctx sink (shape : Tshape.t) =
    let roots =
      List.map
        (fun h -> (h, root_instances rctx h))
        (handles (Store_.Shredded.types rctx.store) shape)
    in
    let wrapper = Option.bind wrapper (fun wrapper -> wrap ~wrapper (count_trees roots)) in
    Option.iter (S.open_element sink) wrapper;
    List.iter
      (fun (root, ids) ->
        let plan = plan rctx root ids in
        if Array.length ids = 1 && ids.(0) = -1 then walk rctx sink plan (-1)
        else
          Xmobs.Ctx.region rctx.ctx Xmobs.Layer.emit (fun () ->
              Array.iter (fun id -> walk rctx sink plan id) ids))
      roots;
    Option.iter (S.close_element sink) wrapper

  let render ?ctx ?wrapper store sink shape =
    let rctx = make_rctx ?ctx store in
    Xmobs.Ctx.region ctx Xmobs.Layer.render (fun () -> emit ?wrapper rctx sink shape)
end

module Tree_emit = Emit (Xml.Tree.Builder)
module Bytes_emit = Emit (Xml.Printer.Writer)

let to_trees store shape =
  let b = Xml.Tree.Builder.create () in
  Tree_emit.render store b shape;
  Xml.Tree.Builder.trees b

let to_tree ?ctx ?(wrapper = "result") store shape =
  let b = Xml.Tree.Builder.create () in
  Tree_emit.render ?ctx ~wrapper store b shape;
  List.hd (Xml.Tree.Builder.trees b)

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
  let w = Xml.Printer.Writer.create ?indent ?on_close buf in
  let bytes =
    let rctx = make_rctx ?ctx store in
    Xmobs.Ctx.region ctx Xmobs.Layer.render @@ fun () ->
    Bytes_emit.emit ?wrapper rctx w shape;
    let bytes = !flushed + Buffer.length buf - start in
    Store_.Io_stats.charge_write ?ctx (Store_.Shredded.stats store) bytes;
    bytes
  in
  { elements = Xml.Printer.Writer.elements w; bytes }

let stream store shape sink = write store shape ~flush:sink (Buffer.create 1024)

let to_buffer ?ctx ?wrapper ?indent store shape buf =
  write ?ctx ?wrapper ?indent store shape buf

type instance = { id : int; parent : int; dewey : Dewey.t; source : int }

(* Walk the plan in emission order, but record an instance per target
   node instead of building trees: its output preorder rank, its output
   parent's, its Dewey number and its source.  Child slot numbering
   mirrors [Doc.of_tree]: every emitted child (attributes included) takes
   the next Dewey slot. *)
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
        let add_slice b () s pos len = Buffer.add_substring b s pos len in
        let rec add (h : handle) id =
          if Option.is_some h.node.source && id >= 0 then
            Store_.Shredded.value_slice ?ctx:t.rctx.ctx t.rctx.store id add_slice b ();
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

let explain store (shape : Tshape.t) =
  let rctx = make_rctx store in
  let tt = Store_.Shredded.types store in
  List.map
    (fun (pty, cty, card, parents) ->
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
  let runs, groups = closest_runs rctx ~pty:t ~parents:pc ~cty:u in
  let kids = cache rctx u in
  Array.iteri
    (fun k g ->
      if g >= 0 then
        for i = groups.Closest.offs.(g) to groups.offs.(g + 1) - 1 do
          f pc.(k) kids.(i)
        done)
    runs

let closest_pairs store t u =
  let out = ref [] in
  iter_closest store t u (fun p c -> out := (p, c) :: !out);
  List.rev !out
