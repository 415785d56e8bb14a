open Xmutil

type stats = { elements : int; bytes : int }

module Store_ = Store (* the OCaml library, not a value *)

type type_cache = {
  ids : int array; (* TypeToSequence row: node ids in document order *)
  deweys : Dewey.t array; (* aligned with [ids] *)
  pos_of : (int, int) Hashtbl.t; (* node id -> position in [ids] *)
}

type rctx = {
  store : Store_.Shredded.t;
  caches : (int, type_cache) Hashtbl.t;
  cache_lock : Mutex.t; (* guards [caches]; entries are immutable once built *)
  levels : (int * int, int) Hashtbl.t; (* normalized type pair -> join level *)
  level_lock : Mutex.t; (* guards [levels]; may nest over [cache_lock] *)
}

let make_rctx store =
  { store; caches = Hashtbl.create 64; cache_lock = Mutex.create ();
    levels = Hashtbl.create 64; level_lock = Mutex.create () }

(* How many domains this render may use.  Profiling forces sequential
   evaluation: the profiler's frame stack and block-attribution counters
   are single-domain structures, and per-operator timings would be
   meaningless interleaved. *)
let effective_jobs () = if Xmobs.Profile.profiling () then 1 else Pool.jobs ()

let cache rctx ty =
  Mutex.lock rctx.cache_lock;
  let c =
    match Hashtbl.find_opt rctx.caches ty with
    | Some c -> c
    | None ->
        (* Join-side data only: the sequence row and the columnar Dewey
           sidecar.  No node record is decoded here — emission fetches
           records for the instances it actually outputs. *)
        let ids = Store_.Shredded.sequence rctx.store ty in
        let deweys = Store_.Shredded.dewey_column rctx.store ty in
        let pos_of = Hashtbl.create (Array.length ids) in
        Array.iteri (fun i id -> Hashtbl.replace pos_of id i) ids;
        let c = { ids; deweys; pos_of } in
        Hashtbl.replace rctx.caches ty c;
        c
  in
  Mutex.unlock rctx.cache_lock;
  c

(* Maximal common Dewey prefix over all cross pairs of the two document-
   ordered sequences; adjacent pairs in the merged order suffice.  Cached
   per type pair — the same edge type recurs once per parent instance in
   navigation-style access. *)
let join_level_ctx rctx t u =
  let key = if t <= u then (t, u) else (u, t) in
  Mutex.lock rctx.level_lock;
  let l =
    match Hashtbl.find_opt rctx.levels key with
    | Some l -> l
    | None ->
        let a = (cache rctx t).deweys and b = (cache rctx u).deweys in
        let best = ref 0 in
        let consider x y =
          let cp = Dewey.common_prefix_len x y in
          if cp > !best then best := cp
        in
        let i = ref 0 and j = ref 0 in
        while !i < Array.length a && !j < Array.length b do
          consider a.(!i) b.(!j);
          if Dewey.compare a.(!i) b.(!j) <= 0 then incr i else incr j
        done;
        if !i < Array.length a && !j > 0 then consider a.(!i) b.(!j - 1);
        if !j < Array.length b && !i > 0 then consider a.(!i - 1) b.(!j);
        Hashtbl.replace rctx.levels key !best;
        !best
  in
  Mutex.unlock rctx.level_lock;
  l

let compare_prefix l da db =
  (* Lexicographic comparison of the first [l] components. *)
  let rec go i =
    if i >= l then 0
    else
      let c = Stdlib.compare da.(i) db.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Below this many parents a closest join is not worth fanning out. *)
let parallel_parents = 128

(* The closest join (CLOSE): for each parent instance (an array of node ids
   of type [pty]) the document-ordered closest instances of type [cty].

   The child side comes from the GroupedSequence table (Fig. 8): the child
   sequence pre-grouped into runs of equal [l]-prefix — the same table
   [join_one] navigates.  Each parent locates its run by binary search over
   the group starts, O(log g); when the parents arrive in document order
   (the common case — instance arrays are document-ordered) the search is
   narrowed to start at the previous parent's run, making a batch one
   forward pass.  ORDER-BY-sorted parents simply fall back to full-range
   searches instead of the defensive copy-and-sort the merge join needed.

   Per-parent searches are independent, so large batches are partitioned
   across the domain pool; each chunk fills its own table over a disjoint
   parent range, and the merge is deterministic regardless of job count. *)
let closest_join rctx ~pty ~parents ~cty =
  let l = join_level_ctx rctx pty cty in
  let pc = cache rctx pty and cc = cache rctx cty in
  let result = Hashtbl.create (Array.length parents) in
  if Array.length cc.ids = 0 || l = 0 then result
  else begin
    let groups = Store_.Shredded.grouped_sequence rctx.store cty ~level:l in
    let ngroups = Array.length groups in
    (* Lower bound: first group at or after [pd]'s l-prefix. *)
    let find_run pd from =
      let lo = ref from and hi = ref ngroups in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let gs, _ = groups.(mid) in
        if compare_prefix l cc.deweys.(gs) pd < 0 then lo := mid + 1
        else hi := mid
      done;
      !lo
    in
    let sorted =
      let ok = ref true and last = ref (-1) in
      Array.iter
        (fun pid ->
          match Hashtbl.find_opt pc.pos_of pid with
          | None -> ()
          | Some p ->
              if p < !last then ok := false;
              last := p)
        parents;
      !ok
    in
    let join_range start stop tbl =
      let cur = ref 0 in
      for k = start to stop - 1 do
        let pid = parents.(k) in
        match Hashtbl.find_opt pc.pos_of pid with
        | None -> ()
        | Some ppos ->
            let pd = pc.deweys.(ppos) in
            if Array.length pd >= l then begin
              let g = find_run pd (if sorted then !cur else 0) in
              if sorted then cur := g;
              if g < ngroups then begin
                let gs, ge = groups.(g) in
                if compare_prefix l cc.deweys.(gs) pd = 0 then
                  Hashtbl.replace tbl pid (Array.sub cc.ids gs (ge - gs))
              end
            end
      done
    in
    let n = Array.length parents in
    let jobs = effective_jobs () in
    if jobs <= 1 || n < parallel_parents then join_range 0 n result
    else begin
      let tables =
        Pool.parallel
          (Array.to_list
             (Array.map
                (fun (s, e) () ->
                  let tbl = Hashtbl.create (e - s) in
                  join_range s e tbl;
                  tbl)
                (Pool.chunks ~total:n ~parts:jobs)))
      in
      (* Chunks cover disjoint parent ranges, so the merged table is the
         sequential one key for key. *)
      List.iter
        (fun tbl -> Hashtbl.iter (fun k v -> Hashtbl.replace result k v) tbl)
        tables;
      Store_.Io_stats.republish (Store_.Shredded.stats rctx.store)
    end;
    result
  end

(* One parent's closest children — the lazy counterpart of the batched
   sort-merge join.  The GroupedSequence table (Fig. 8) gives the child
   sequence pre-grouped by its [l]-prefix, so locating a parent's run is one
   binary search over groups: O(log g) per navigation step. *)
let join_one rctx ~pty pid ~cty =
  let l = join_level_ctx rctx pty cty in
  let pc = cache rctx pty and cc = cache rctx cty in
  if l = 0 || Array.length cc.ids = 0 then [||]
  else
    match Hashtbl.find_opt pc.pos_of pid with
    | None -> [||]
    | Some ppos ->
        let pd = pc.deweys.(ppos) in
        if Array.length pd < l then [||]
        else begin
          let groups =
            Store_.Shredded.grouped_sequence rctx.store cty ~level:l
          in
          let lo = ref 0 and hi = ref (Array.length groups) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            let gs, _ = groups.(mid) in
            if compare_prefix l cc.deweys.(gs) pd < 0 then lo := mid + 1
            else hi := mid
          done;
          if !lo >= Array.length groups then [||]
          else
            let gs, ge = groups.(!lo) in
            if compare_prefix l cc.deweys.(gs) pd = 0 then
              Array.sub cc.ids gs (ge - gs)
            else [||]
        end

(* ------------------------------------------------------------------ *)
(* Planning: one pass computing, for every target-shape edge, the per-  *)
(* parent closest children ("pipelined joins").                         *)
(* ------------------------------------------------------------------ *)

type plan = {
  (* (child tnode uid, parent instance id) -> closest child instances *)
  maps : (int * int, int array) Hashtbl.t;
  plan_lock : Mutex.t;
      (* guards [maps] while sibling edges are planned in parallel; edges
         write disjoint keys (distinct child uids), so the table's final
         contents are independent of the job count *)
}

let make_plan n = { maps = Hashtbl.create n; plan_lock = Mutex.create () }

(* Record a batch of (key, instances) bindings.  Writers accumulate locally
   and flush once, so the lock is taken once per edge, not per parent. *)
let plan_put plan bindings =
  match bindings with
  | [] -> ()
  | _ ->
      Mutex.lock plan.plan_lock;
      List.iter (fun (k, v) -> Hashtbl.replace plan.maps k v) bindings;
      Mutex.unlock plan.plan_lock

let rec first_sourced (n : Tshape.node) =
  match n.source with
  | Some ty -> Some ty
  | None ->
      List.fold_left
        (fun acc c -> match acc with Some _ -> acc | None -> first_sourced c)
        None n.children

(* The anchor of a NEW node: its first directly sourced child.  A NEW node
   with an anchor renders once per anchor instance ("wraps each author in a
   scribe element"); its other children join by closeness to the anchor. *)
let direct_anchor (n : Tshape.node) =
  List.find_map (fun (c : Tshape.node) -> c.source) n.children

let sorted_unique ids =
  let a = Array.copy ids in
  Array.sort Stdlib.compare a;
  let v = Vec.create () in
  Array.iteri
    (fun i id -> if i = 0 || a.(i - 1) <> id then ignore (Vec.push v id))
    a;
  Vec.to_array v

(* Keep only instances passing a node's value filter (the value-based
   transformation extension): the record's direct text must equal the
   literal. *)
let filter_value rctx (tn : Tshape.node) ids =
  match tn.value_filter with
  | None -> ids
  | Some v ->
      Array.of_list
        (List.filter
           (fun id -> (Store_.Shredded.node rctx.store id).value = v)
           (Array.to_list ids))

(* Does instance [id] (of the anchor type [aty]) satisfy the restrict
   pattern [rn]?  Existence check: some closest instance of [rn] must itself
   satisfy [rn]'s own restricts and visible children-restrictions are not
   required (only the restrict chain filters). *)
let rec satisfies rctx ~aty id (rn : Tshape.node) =
  match rn.source with
  | None -> true (* a NEW node in a restrict pattern always "exists" *)
  | Some rty ->
      let m = closest_join rctx ~pty:aty ~parents:[| id |] ~cty:rty in
      (match Hashtbl.find_opt m id with
      | None -> false
      | Some kids ->
          let kids = filter_value rctx rn kids in
          Array.exists
            (fun kid ->
              List.for_all
                (fun sub -> satisfies rctx ~aty:rty kid sub)
                (rn.restrict_children @ rn.children))
            kids)

let filter_restrict rctx ~aty (tn : Tshape.node) ids =
  match tn.restrict_children with
  | [] -> ids
  | rs ->
      Array.of_list
        (List.filter
           (fun id -> List.for_all (fun rn -> satisfies rctx ~aty id rn) rs)
           (Array.to_list ids))

(* The sibling-ordering extension: sort an instance array by the deep text
   of each instance's closest key-label instance.  The key label resolves to
   the candidate type closest to the sorted node's source type, mirroring
   guard label resolution. *)
let resolve_sort_type rctx (sty : int) label =
  let guide = Store_.Shredded.guide rctx.store in
  match Xml.Dataguide.match_label guide label with
  | [] -> None
  | cands ->
      let tt = Store_.Shredded.types rctx.store in
      Some
        (List.fold_left
           (fun best c ->
             if Xml.Type_table.type_distance tt sty c
                < Xml.Type_table.type_distance tt sty best
             then c
             else best)
           (List.hd cands) (List.tl cands))

let sort_instances rctx (tn : Tshape.node) ids =
  match (tn.sort_key, tn.source) with
  | None, _ | _, None -> ids
  | Some (label, desc), Some sty -> (
      match resolve_sort_type rctx sty label with
      | None -> ids
      | Some kty ->
          let key id =
            if kty = sty then (Store_.Shredded.node rctx.store id).value
            else
              String.concat ""
                (Array.to_list
                   (Array.map
                      (fun k -> (Store_.Shredded.node rctx.store k).value)
                      (join_one rctx ~pty:sty id ~cty:kty)))
          in
          let decorated = Array.map (fun id -> (key id, id)) ids in
          let cmp (k1, _) (k2, _) =
            let c = compare k1 k2 in
            if desc then -c else c
          in
          Array.stable_sort cmp decorated;
          Array.map snd decorated)

(* Sibling edges of the target shape are independent — each writes plan
   keys under its own child uid — so they are evaluated concurrently when
   the pool has domains to spare.  With one job this is [List.iter]. *)
let rec plan_node rctx plan (tn : Tshape.node) ~aty ~ids =
  let plan_child (c : Tshape.node) =
    match c.source with
    | Some cty -> plan_edge rctx plan c ~aty ~ids ~cty
    | None -> (
        match direct_anchor c with
        | Some anchor_ty ->
            (* One NEW element per closest anchor instance; record the
               anchor instances under the NEW node's own key, then plan the
               NEW node's children keyed on the anchor type (the anchor
               child itself resolves by the identity self-join). *)
            let m = closest_join rctx ~pty:aty ~parents:ids ~cty:anchor_ty in
            let all = Vec.create () in
            let bindings = ref [] in
            Array.iter
              (fun pid ->
                match Hashtbl.find_opt m pid with
                | None -> ()
                | Some kids ->
                    bindings := ((c.uid, pid), kids) :: !bindings;
                    Array.iter (fun k -> ignore (Vec.push all k)) kids)
              ids;
            plan_put plan !bindings;
            let anchor_ids = sorted_unique (Vec.to_array all) in
            plan_node rctx plan c ~aty:anchor_ty ~ids:anchor_ids
        | None ->
            (* No sourced child anywhere below: emitted once per parent
               instance, deeper NEW nodes likewise. *)
            plan_node rctx plan c ~aty ~ids)
  in
  match tn.children with
  | [] -> ()
  | [ c ] -> plan_child c
  | cs when effective_jobs () > 1 ->
      ignore (Pool.parallel (List.map (fun c () -> plan_child c) cs))
  | cs -> List.iter plan_child cs

(* Profiled wrapper: each target edge's pipelined join appears in the
   profile as a [closest(parent->child)] frame, nested to mirror the target
   shape, with parents in, closest pairs, and distinct children out. *)
and plan_edge rctx plan (c : Tshape.node) ~aty ~ids ~cty =
  if not (Xmobs.Profile.profiling ()) then
    plan_edge_op rctx plan c ~aty ~ids ~cty
  else begin
    let tt = Store_.Shredded.types rctx.store in
    let name =
      Printf.sprintf "closest(%s->%s)" (Xml.Type_table.qname tt aty)
        (Xml.Type_table.qname tt cty)
    in
    let tok = Xmobs.Profile.enter name in
    Xmobs.Profile.add_in (Array.length ids);
    match plan_edge_op rctx plan c ~aty ~ids ~cty with
    | () -> Xmobs.Profile.exit tok
    | exception e ->
        Xmobs.Profile.exit tok;
        raise e
  end

and plan_edge_op rctx plan (c : Tshape.node) ~aty ~ids ~cty =
  let m = closest_join rctx ~pty:aty ~parents:ids ~cty in
  let all = Vec.create () in
  let bindings = ref [] in
  Array.iter
    (fun pid ->
      match Hashtbl.find_opt m pid with
      | None -> ()
      | Some kids ->
          let kids = filter_value rctx c kids in
          let kids = filter_restrict rctx ~aty:cty c kids in
          let kids = sort_instances rctx c kids in
          if Array.length kids > 0 then begin
            bindings := ((c.uid, pid), kids) :: !bindings;
            Xmobs.Profile.add_pairs (Array.length kids);
            Array.iter (fun k -> ignore (Vec.push all k)) kids
          end)
    ids;
  plan_put plan !bindings;
  let child_ids = sorted_unique (Vec.to_array all) in
  Xmobs.Profile.add_out (Array.length child_ids);
  plan_node rctx plan c ~aty:cty ~ids:child_ids

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)
(* ------------------------------------------------------------------ *)

let strip_at s =
  if String.length s > 0 && s.[0] = '@' then String.sub s 1 (String.length s - 1)
  else s

(* A leaf child with exactly one instance whose source type is an
   attribute renders as an attribute of its parent; [emit], [stream] and
   [Nav] all split children by this one test. *)
let is_attr_child rctx (c : Tshape.node) insts =
  Array.length insts = 1 && c.children = []
  && (match c.source with
     | Some cty ->
         Xml.Type_table.is_attribute (Store_.Shredded.types rctx.store) cty
     | None -> false)

(* Instances of child [c] in the context of the key instance [key] (the
   parent's own instance, or — under a NEW parent — its anchor instance). *)
let child_instances plan (c : Tshape.node) key =
  match c.source with
  | Some _ -> (
      match Hashtbl.find_opt plan.maps (c.uid, key) with
      | Some a -> a
      | None -> [||])
  | None ->
      if direct_anchor c <> None then (
        match Hashtbl.find_opt plan.maps (c.uid, key) with
        | Some a -> a
        | None -> [||])
      else [| key |] (* anchorless NEW: once per key instance *)

let rec emit rctx plan (tn : Tshape.node) id : Xml.Tree.t =
  (* [id] is an instance of [tn]'s anchor type; when [tn] is sourced it is an
     instance of [tn] itself. *)
  match tn.source with
  | Some _ ->
      let record = Store_.Shredded.node rctx.store id in
      let attrs = ref [] and kids = ref [] in
      List.iter
        (fun (c : Tshape.node) ->
          let insts = child_instances plan c id in
          if is_attr_child rctx c insts then begin
            let arec = Store_.Shredded.node rctx.store insts.(0) in
            attrs := (strip_at c.out_name, arec.value) :: !attrs
          end
          else
            Array.iter (fun cid -> kids := emit rctx plan c cid :: !kids) insts)
        tn.children;
      let children = List.rev !kids in
      let children =
        if record.value = "" then children
        else Xml.Tree.Text record.value :: children
      in
      Xml.Tree.Element
        { name = strip_at tn.out_name; attrs = List.rev !attrs; children }
  | None ->
      let kids = ref [] in
      List.iter
        (fun (c : Tshape.node) ->
          let insts = child_instances plan c id in
          Array.iter (fun cid -> kids := emit rctx plan c cid :: !kids) insts)
        tn.children;
      Xml.Tree.Element
        { name = strip_at tn.out_name; attrs = []; children = List.rev !kids }

let root_instances rctx (tn : Tshape.node) =
  match tn.source with
  | Some ty ->
      let ids = filter_value rctx tn (cache rctx ty).ids in
      sort_instances rctx tn (filter_restrict rctx ~aty:ty tn ids)
  | None -> (
      match first_sourced tn with
      | Some aty -> (cache rctx aty).ids
      | None -> [| -1 |] (* a purely NEW subtree renders once, empty *))

(* For a NEW root anchored on a sourced descendant, joins must key on the
   anchor type; plan_node already treats NEW nodes as transparent, so the
   anchor instance ids flow down to the sourced children. *)
let plan_root rctx plan (tn : Tshape.node) ids =
  match tn.source with
  | Some ty -> plan_node rctx plan tn ~aty:ty ~ids
  | None -> (
      match first_sourced tn with
      | Some aty -> plan_node rctx plan tn ~aty ~ids
      | None -> ())

let rec emit_empty (tn : Tshape.node) : Xml.Tree.t =
  Xml.Tree.Element
    {
      name = strip_at tn.out_name;
      attrs = [];
      children = List.map emit_empty tn.children;
    }

let to_trees store (shape : Tshape.t) =
  Xmobs.Obs.phase "render" @@ fun () ->
  Xmobs.Profile.op "render" @@ fun () ->
  let rctx = make_rctx store in
  let plan = make_plan 1024 in
  let trees =
    List.concat_map
      (fun (root : Tshape.node) ->
        let ids = root_instances rctx root in
        plan_root rctx plan root ids;
        if Array.length ids = 1 && ids.(0) = -1 then [ emit_empty root ]
        else
          Xmobs.Profile.op "emit" (fun () ->
              (* The plan is read-only by now; each root instance's subtree
                 is independent, so emission is chunked across the pool and
                 concatenated back in document order. *)
              let emit_one id = emit rctx plan root id in
              if effective_jobs () > 1 then
                Array.to_list (Pool.map_chunked ~min_chunk:16 emit_one ids)
              else Array.to_list (Array.map emit_one ids)))
      shape.roots
  in
  Store_.Io_stats.republish (Store_.Shredded.stats store);
  trees

let to_tree ?(wrapper = "result") store shape =
  match to_trees store shape with
  | [ t ] -> t
  | ts -> Xml.Tree.Element { name = wrapper; attrs = []; children = ts }

(* Streamed emission: the same walk as [emit], but serialized fragments go
   straight to the sink. *)
let stream store (shape : Tshape.t) sink =
  Xmobs.Obs.phase "render" @@ fun () ->
  Xmobs.Profile.op "render" @@ fun () ->
  let rctx = make_rctx store in
  (* Streaming stays sequential: fragments reach the sink in document
     order, and the sink sees them as they are produced.  The planning
     phase underneath still fans its closest joins out. *)
  let plan = make_plan 1024 in
  let bytes = ref 0 and elements = ref 0 in
  let out s =
    bytes := !bytes + String.length s;
    sink s
  in
  let rec walk (tn : Tshape.node) id =
    incr elements;
    let value, attrs, elems =
      match tn.source with
      | Some _ ->
          let record = Store_.Shredded.node rctx.store id in
          (* Split children into attribute-rendered and element-rendered,
             mirroring [emit]. *)
          let attrs = ref [] and elems = ref [] in
          List.iter
            (fun (c : Tshape.node) ->
              let insts = child_instances plan c id in
              if is_attr_child rctx c insts then begin
                incr elements;
                let arec = Store_.Shredded.node rctx.store insts.(0) in
                attrs := (strip_at c.out_name, arec.value) :: !attrs
              end
              else Array.iter (fun cid -> elems := (c, cid) :: !elems) insts)
            tn.children;
          (record.value, List.rev !attrs, List.rev !elems)
      | None ->
          let elems = ref [] in
          List.iter
            (fun (c : Tshape.node) ->
              let insts = child_instances plan c id in
              Array.iter (fun cid -> elems := (c, cid) :: !elems) insts)
            tn.children;
          ("", [], List.rev !elems)
    in
    let name = strip_at tn.out_name in
    out "<";
    out name;
    List.iter
      (fun (k, v) ->
        out " ";
        out k;
        out "=\"";
        out (Xml.Printer.escape_attr v);
        out "\"")
      attrs;
    if value = "" && elems = [] then out "/>"
    else begin
      out ">";
      if value <> "" then out (Xml.Printer.escape_text value);
      List.iter (fun (c, cid) -> walk c cid) elems;
      out "</";
      out name;
      out ">"
    end
  in
  List.iter
    (fun (root : Tshape.node) ->
      let ids = root_instances rctx root in
      plan_root rctx plan root ids;
      if Array.length ids = 1 && ids.(0) = -1 then begin
        (* Purely NEW subtree. *)
        let rec empty (tn : Tshape.node) =
          incr elements;
          let name = strip_at tn.out_name in
          if tn.children = [] then (out "<"; out name; out "/>")
          else begin
            out "<";
            out name;
            out ">";
            List.iter empty tn.children;
            out "</";
            out name;
            out ">"
          end
        in
        empty root
      end
      else
        Xmobs.Profile.op "emit" (fun () ->
            Array.iter (fun id -> walk root id) ids))
    shape.roots;
  Store_.Io_stats.charge_write (Store_.Shredded.stats store) !bytes;
  { elements = !elements; bytes = !bytes }

let to_buffer store shape buf =
  let trees = to_trees store shape in
  let start = Buffer.length buf in
  let elements = ref 0 in
  List.iter
    (fun t ->
      Xml.Printer.to_buffer buf t;
      elements := !elements + Xml.Tree.count_nodes t)
    trees;
  let bytes = Buffer.length buf - start in
  Store_.Io_stats.charge_write (Store_.Shredded.stats store) bytes;
  if Xmobs.Metrics.is_enabled () then begin
    Xmobs.Metrics.inc ~by:!elements "render.elements";
    Xmobs.Metrics.inc ~by:bytes "render.bytes"
  end;
  { elements = !elements; bytes }

type instance = { dewey : Dewey.t; source : int }

(* Walk the plan exactly as [emit] does, but record (dewey, source) per
   target node instead of building trees.  Child slot numbering mirrors
   [Doc.of_tree]: every emitted child (attributes included) takes the next
   Dewey slot. *)
let instances store (shape : Tshape.t) =
  let rctx = make_rctx store in
  let plan = make_plan 1024 in
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
  let rec walk (tn : Tshape.node) id dewey =
    record tn { dewey; source = (match tn.source with Some _ -> id | None -> -1) };
    let slot = ref 0 in
    List.iter
      (fun (c : Tshape.node) ->
        let insts = child_instances plan c id in
        Array.iter
          (fun cid ->
            incr slot;
            walk c cid (Dewey.child dewey !slot))
          insts)
      tn.children
  in
  let root_index = ref 0 in
  List.iter
    (fun (root : Tshape.node) ->
      let ids = root_instances rctx root in
      plan_root rctx plan root ids;
      if Array.length ids = 1 && ids.(0) = -1 then begin
        incr root_index;
        walk root (-1) [| !root_index |]
      end
      else
        Array.iter
          (fun id ->
            incr root_index;
            walk root id [| !root_index |])
          ids)
    shape.roots;
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
  type nonrec t = {
    rctx : rctx;
    shape : Tshape.t;
    anchor : (int, int option) Hashtbl.t; (* tnode uid -> anchor source type *)
  }

  let create store shape =
    let rctx = make_rctx store in
    let anchor = Hashtbl.create 16 in
    let rec assign (tn : Tshape.node) inherited =
      let aty =
        match tn.source with
        | Some ty -> Some ty
        | None -> (
            match direct_anchor tn with Some a -> Some a | None -> inherited)
      in
      Hashtbl.replace anchor tn.uid aty;
      List.iter (fun c -> assign c aty) tn.children
    in
    List.iter
      (fun (r : Tshape.node) ->
        let init =
          match r.source with
          | Some ty -> Some ty
          | None -> (
              match direct_anchor r with Some a -> Some a | None -> first_sourced r)
        in
        assign r init)
      shape.Tshape.roots;
    { rctx; shape; anchor }

  let anchor_of t (tn : Tshape.node) = Hashtbl.find t.anchor tn.uid

  let roots t =
    List.map
      (fun (r : Tshape.node) -> (r, root_instances t.rctx r))
      t.shape.Tshape.roots

  let children t (tn : Tshape.node) id =
    let aty = anchor_of t tn in
    List.map
      (fun (c : Tshape.node) ->
        match (c.source, aty) with
        | Some cty, Some aty when id >= 0 ->
            let kids = join_one t.rctx ~pty:aty id ~cty in
            let kids = filter_value t.rctx c kids in
            let kids = filter_restrict t.rctx ~aty:cty c kids in
            let kids = sort_instances t.rctx c kids in
            (c, kids)
        | Some _, _ -> (c, [||])
        | None, _ -> (
            match (direct_anchor c, aty) with
            | Some a_ty, Some aty when id >= 0 ->
                (c, join_one t.rctx ~pty:aty id ~cty:a_ty)
            | _ -> (c, [| id |])))
      tn.children

  let value t (tn : Tshape.node) id =
    match tn.source with
    | Some _ when id >= 0 -> (Store_.Shredded.node t.rctx.store id).value
    | _ -> ""

  let attributes t tn id =
    List.filter_map
      (fun ((c : Tshape.node), kids) ->
        if is_attr_child t.rctx c kids then
          Some
            (strip_at c.out_name,
             (Store_.Shredded.node t.rctx.store kids.(0)).value)
        else None)
      (children t tn id)

  let element_children t tn id =
    List.filter
      (fun ((c : Tshape.node), kids) -> not (is_attr_child t.rctx c kids))
      (children t tn id)

  let materialize t (tn : Tshape.node) id =
    if id < 0 then emit_empty tn
    else begin
      let plan = make_plan 64 in
      (match anchor_of t tn with
      | Some aty -> plan_node t.rctx plan tn ~aty ~ids:[| id |]
      | None -> ());
      emit t.rctx plan tn id
    end

  let rec deep_text t tn id =
    let b = Buffer.create 32 in
    Buffer.add_string b (value t tn id);
    List.iter
      (fun ((c : Tshape.node), kids) ->
        Array.iter (fun k -> Buffer.add_string b (deep_text t c k)) kids)
      (element_children t tn id);
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

let explain store (shape : Tshape.t) =
  let rctx = make_rctx store in
  let tt = Store_.Shredded.types store in
  let guide = Store_.Shredded.guide store in
  let out = ref [] in
  let rec walk (tn : Tshape.node) =
    (match tn.source with
    | None -> ()
    | Some pty ->
        List.iter
          (fun (c : Tshape.node) ->
            match c.source with
            | None -> ()
            | Some cty ->
                let l = join_level_ctx rctx pty cty in
                let pc = cache rctx pty and cc = cache rctx cty in
                let m = closest_join rctx ~pty ~parents:pc.ids ~cty in
                let pairs = ref 0 in
                let matched_children = Hashtbl.create 64 in
                Array.iter
                  (fun pid ->
                    match Hashtbl.find_opt m pid with
                    | None -> ()
                    | Some kids ->
                        pairs := !pairs + Array.length kids;
                        Array.iter (fun k -> Hashtbl.replace matched_children k ()) kids)
                  pc.ids;
                let dp = Xml.Type_table.depth tt pty
                and dc = Xml.Type_table.depth tt cty in
                out :=
                  {
                    parent = Xml.Type_table.qname tt pty;
                    child = Xml.Type_table.qname tt cty;
                    type_distance = dp + dc - (2 * l);
                    join_level = l;
                    parent_instances = Array.length pc.ids;
                    child_instances = Array.length cc.ids;
                    pairs = !pairs;
                    orphans = Array.length cc.ids - Hashtbl.length matched_children;
                    predicted =
                      Xmutil.Card.scale
                        (Xml.Dataguide.path_card guide pty cty)
                        (Array.length pc.ids);
                  }
                  :: !out)
          tn.children);
    List.iter walk tn.children
  in
  List.iter walk shape.roots;
  List.rev !out

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

let join_level store t u = join_level_ctx (make_rctx store) t u

let closest_pairs store t u =
  let rctx = make_rctx store in
  let pc = cache rctx t in
  let m = closest_join rctx ~pty:t ~parents:pc.ids ~cty:u in
  let out = ref [] in
  Array.iter
    (fun pid ->
      match Hashtbl.find_opt m pid with
      | None -> ()
      | Some kids -> Array.iter (fun k -> out := (pid, k) :: !out) kids)
    pc.ids;
  List.rev !out
