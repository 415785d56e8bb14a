open Xmutil

let rec sourced_ancestor (n : Tshape.node) =
  match n.parent with
  | None -> None
  | Some p -> ( match p.source with Some _ -> Some p | None -> sourced_ancestor p)

let predicted_card guide (n : Tshape.node) =
  match (n.source, sourced_ancestor n) with
  | Some s, Some anc -> (
      match anc.source with
      | Some t -> Xml.Dataguide.path_card guide t s
      | None -> Card.one)
  | _ -> Card.one

(* Least common ancestor in the target tree, by walking up from the deeper
   node.  Returns None when the nodes are in different trees. *)
let target_lca (a : Tshape.node) (b : Tshape.node) =
  let rec ancestors acc (n : Tshape.node) =
    let acc = n :: acc in
    match n.parent with None -> acc | Some p -> ancestors acc p
  in
  let pa = ancestors [] a and pb = ancestors [] b in
  (* Both lists start at the root. *)
  let rec common last xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when x == y -> common (Some x) xs' ys'
    | _ -> last
  in
  common None pa pb

let target_path_card guide a b =
  if a == b then Card.one
  else
    match target_lca a b with
    | None -> Card.zero
    | Some lca ->
        (* Multiply predicted cards on the way down from the LCA to [b];
           the way up from [a] contributes 1..1. *)
        let rec up acc (n : Tshape.node) =
          if n == lca then acc
          else
            match n.parent with
            | None -> acc
            | Some p -> up (Card.mul acc (predicted_card guide n)) p
        in
        up Card.one b

(* Theorems 1-2 are decided per cell, not per pair.

   For an ordered pair (a, b) of sourced target nodes with distinct source
   types [sa] and [sb], two values decide the verdict:

   - the source path card (Def. 6) of [sb] from depth [ls] (exclusive),
     where [ls] is the depth of the deepest common ancestor of the two
     types;
   - the predicted target path card (Def. 7) of [b] from depth [lt], the
     depth of the two nodes' deepest common ancestor in the target.  [lt =
     0] means different trees, whose card is [0..0] and never violates.

   So the verdict depends on (b, lt, ls) alone, a cell: at most L (D + 1)
   of them for a node at target depth L whose type has depth D.  With
   [anc] b's target chain and [ch] sb's source chain (root first, 0-based),
   a cell's members are the nodes of the target ring subtree(anc.(lt-1)) \
   subtree(anc.(lt)) whose types lie in the source ring subtree(ch.(ls-1))
   \ subtree(ch.(ls)), other than [sb] itself.

   A walk over the target shape takes each ring in two halves.  The part
   before [anc.(lt)] in preorder, with the ring's apex, is entered between
   [anc.(lt-1)] and [anc.(lt)], so it is decided when [b] is entered; the
   part after it is entered between the two in the mirror walk (children
   right to left), and the subtree of [b] ([lt = L]) is decided when [b] is
   left.  A half-ring's members are a run of positions.

   Members are listed only for a cell that violates and is not empty.
   Source rings nest, so cell [ls] holds the members counted by boundary
   [ls] less those counted by boundary [ls + 1], where boundary [m] in [1
   .. D] counts the types under [ch.(m-1)] and boundary [D + 1] none (cell
   D then also counts the other nodes of type [sb], which its listing
   skips).  Counts come in O(1) from counters the walk bumps on entering a
   sourced node, one per type on its type's chain: a count over a
   half-ring is the difference of two readings, taken at the entries of
   nodes on the current stack, and a counter's reading at a stack level is
   stamped lazily, when the counter is next bumped.  Most cells need no count:
   when the deepest type above all of a half-ring's types lies on [sb]'s
   chain, no member's [ls] is less than its depth, and when it does not,
   every member's [ls] is the depth where the two part.

   Violations come out sorted as the pair loop gave them: by [a], then [b],
   Min_raised first.  Cards are kept as pairs of ints (an unbounded maximum
   is -1), so the work arrays hold no pointers.  Set-up grows with the
   guard, not the schema: path products and chains exist only for the
   types on kept nodes' chains, and qualified names are built once per
   type, from its parent's.  The compile phase stays flat and tiny as the
   paper reports (the 20 ms "compile" line of Fig. 10). *)
let hi_int = function Card.Many -> -1 | Card.Bounded m -> m

let card lo hi = { Card.lo; hi = (if hi < 0 then Card.Many else Card.Bounded hi) }

(* [Card.mul] of the pair at [i] and [(c_lo, c_hi)], stored at [j]: a zero
   maximum wins over an unbounded one, which wins over a bounded one, and
   a product past [max_int] is unbounded. *)
let mul_into lo hi i c_lo c_hi j =
  let a = hi.(i) in
  lo.(j) <- lo.(i) * c_lo;
  hi.(j) <-
    (if a = 0 || c_hi = 0 then 0
     else if a < 0 || c_hi < 0 then -1
     else if (a lor c_hi) lsr 30 = 0 (* both below 2^30 *) || c_hi <= max_int / a
     then a * c_hi
     else -1)

(* [Card.min_raised_from_zero] (bit 1) and [Card.max_increased] (bit 2) on
   int pairs. *)
let violation ~src_lo ~src_hi ~tgt_lo ~tgt_hi =
  (if src_lo = 0 && tgt_lo > 0 then 1 else 0)
  + if src_hi >= 0 && (tgt_hi < 0 || tgt_hi > src_hi) then 2 else 0

let analyze_impl ?(warnings = []) guide (shape : Tshape.t) : Report.loss_report =
  let tt = Xml.Dataguide.types guide in
  let n_types = Xml.Type_table.count tt in
  (* First pass over the visible target nodes: their number, their depths'
     sum, and the kept types with every type on their chains. *)
  let kept = Array.make n_types false and tdepth = Array.make n_types 0 in
  let n_nodes = ref 0 and n_slots = ref 0 and max_depth = ref 0 in
  let chain_slots = ref 0 in
  let rec on_chain ty =
    if tdepth.(ty) = 0 then begin
      let d = Xml.Type_table.depth tt ty in
      tdepth.(ty) <- d;
      chain_slots := !chain_slots + d + 1;
      Option.iter on_chain (Xml.Type_table.parent tt ty)
    end
  in
  let rec count d (n : Tshape.node) =
    incr n_nodes;
    n_slots := !n_slots + d;
    if d > !max_depth then max_depth := d;
    (match n.source with
    | Some s ->
        kept.(s) <- true;
        on_chain s
    | None -> ());
    List.iter (count (d + 1)) n.children
  in
  List.iter (count 1) shape.Tshape.roots;
  (* Source side.  A type on a kept chain owns the slots [off.(ty) ..
     off.(ty) + depth]: slot [m < depth] holds the ancestor at depth
     [m + 1], and slot [d] the product of edge adornments from depth [d]
     (exclusive) down to the type, so Def. 6's pathCard(t, u) is slot
     [lca_depth t u] of [u].  Types are interned parents first.  Each type
     also has a counter, [sub_id], for the walk below. *)
  let off = Array.make n_types 0 and sub_id = Array.make n_types 0 in
  let chain_at = Array.make !chain_slots 0 in
  let src_lo = Array.make !chain_slots 1 and src_hi = Array.make !chain_slots 1 in
  (* Over slots [d .. depth] of a type: whether a minimum is zero, and the
     least bounded maximum ([max_int] if none), so a row's test for any
     violation below a depth takes O(1). *)
  let zero_below = Array.make !chain_slots false
  and least_below = Array.make !chain_slots max_int in
  let cursor = ref 0 and n_counters = ref 0 in
  for ty = 0 to n_types - 1 do
    let k = tdepth.(ty) in
    if k > 0 then begin
      let o = !cursor in
      cursor := o + k + 1;
      off.(ty) <- o;
      sub_id.(ty) <- !n_counters;
      incr n_counters;
      let c = Xml.Dataguide.card guide ty in
      let c_lo = c.lo and c_hi = hi_int c.hi in
      (match Xml.Type_table.parent tt ty with
      | None ->
          src_lo.(o) <- c_lo;
          src_hi.(o) <- c_hi
      | Some p ->
          let op = off.(p) in
          for m = 0 to k - 2 do
            chain_at.(o + m) <- chain_at.(op + m)
          done;
          for d = 0 to k - 1 do
            mul_into src_lo src_hi (op + d) c_lo c_hi (o + d)
          done);
      chain_at.(o + k - 1) <- ty;
      for d = k downto 0 do
        let h = src_hi.(o + d) in
        zero_below.(o + d) <- src_lo.(o + d) = 0 || (d < k && zero_below.(o + d + 1));
        let below = if d < k then least_below.(o + d + 1) else max_int in
        least_below.(o + d) <- Int.min (if h >= 0 then h else max_int) below
      done
    end
  done;
  (* Depth of the deepest common ancestor of two chain types. *)
  let lca_depth a b =
    let oa = off.(a) and ob = off.(b) and n = Int.min tdepth.(a) tdepth.(b) in
    let m = ref 0 in
    while !m < n && chain_at.(oa + !m) = chain_at.(ob + !m) do
      incr m
    done;
    !m
  in
  (* Second pass: the visible target nodes in preorder, indexed by visit
     number [v].  Sourced nodes are also numbered by position, the order of
     the pair loop; [lo]/[hi] bound the positions in a node's subtree and
     [stop] its visit numbers, and [last_kid]/[prev] link children right to
     left.  Node [v] owns the slots [poff.(v) .. poff.(v) + depth - 1]:
     slot [d] is the product of predicted cards from target depth [d]
     (exclusive) down to [v].  A node's predicted card is the path card
     from its nearest sourced ancestor's type. *)
  let n_nodes = !n_nodes in
  let depth = Array.make n_nodes 0 and src = Array.make n_nodes (-1)
  and pos = Array.make n_nodes 0 and lo = Array.make n_nodes 0
  and hi = Array.make n_nodes 0 and stop = Array.make n_nodes 0
  and poff = Array.make n_nodes 0 and node_at = Array.make n_nodes 0
  and last_kid = Array.make n_nodes (-1) and prev = Array.make n_nodes (-1) in
  let tgt_lo = Array.make !n_slots 1 and tgt_hi = Array.make !n_slots 1 in
  let next = ref 0 and n_pos = ref 0 and slot = ref 0 in
  let rec walk d parent above (n : Tshape.node) =
    let v = !next in
    incr next;
    depth.(v) <- d;
    let o = !slot in
    slot := o + d;
    poff.(v) <- o;
    let pred =
      match n.source with
      | Some s when above >= 0 -> off.(s) + lca_depth above s
      | _ -> -1
    in
    let p_lo = if pred < 0 then 1 else src_lo.(pred)
    and p_hi = if pred < 0 then 1 else src_hi.(pred) in
    let op = poff.(parent) in
    for k = 0 to d - 2 do
      mul_into tgt_lo tgt_hi (op + k) p_lo p_hi (o + k)
    done;
    lo.(v) <- !n_pos;
    let above =
      match n.source with
      | Some s ->
          src.(v) <- s;
          pos.(v) <- !n_pos;
          node_at.(!n_pos) <- v;
          incr n_pos;
          s
      | None -> above
    in
    List.iter
      (fun c ->
        prev.(!next) <- last_kid.(v);
        last_kid.(v) <- !next;
        walk (d + 1) v above c)
      n.children;
    hi.(v) <- !n_pos;
    stop.(v) <- !next
  in
  List.iter (walk 1 0 (-1)) shape.Tshape.roots;
  let n_pos = !n_pos in
  let levels = !max_depth and n_counters = !n_counters in
  let tin = Array.make levels 0 and stack = Array.make levels 0 in
  let cnt = Array.make n_counters 0 and last = Array.make n_counters (-1) in
  let stamp = Array.make (n_counters * levels) 0 in
  let clock = ref 0 in
  (* Counter [c] when the node at stack level [l] was entered, before its
     own bumps; level [-1] is now. *)
  let value c l =
    if l < 0 || tin.(l) > last.(c) then cnt.(c) else stamp.((c * levels) + l)
  in
  let bump c top =
    let base = c * levels and old = cnt.(c) and lc = last.(c) in
    let l = ref top in
    while !l >= 0 && tin.(!l) > lc do
      stamp.(base + !l) <- old;
      decr l
    done;
    cnt.(c) <- old + 1;
    last.(c) <- !clock
  in
  (* The deepest type above every type of a set, as sets are merged: -1
     for the empty set, -2 when the set spans several source trees. *)
  let join a b =
    if a = -1 then b
    else if b = -1 || a = b then a
    else if a = -2 || b = -2 then -2
    else
      let d = lca_depth a b in
      if d = 0 then -2 else chain_at.(off.(a) + d - 1)
  in
  let found = ref [] in
  let verdict s t =
    violation ~src_lo:src_lo.(s) ~src_hi:src_hi.(s) ~tgt_lo:tgt_lo.(t) ~tgt_hi:tgt_hi.(t)
  in
  (* The [n] members of cell [ls] among positions [first .. last - 1],
     with [s] and [t] its source and target slots. *)
  let list_cell b ls s t first last n =
    let sb = src.(b) and v = verdict s t in
    let left = ref n and p = ref first in
    while !left > 0 && !p < last do
      let sa = src.(node_at.(!p)) in
      if sa <> sb && lca_depth sa sb = ls then begin
        let key = ((!p * n_pos) + pos.(b)) * 2 in
        if v land 1 <> 0 then found := (key, s, t) :: !found;
        if v land 2 <> 0 then found := (key + 1, s, t) :: !found;
        decr left
      end;
      incr p
    done
  in
  (* Does a cell of [sb] (source slots from [ob], depth [db]) at depth [ls]
     or below violate against the target slot [t]? *)
  let violates_from ob db t ls =
    ls <= db
    && ((tgt_lo.(t) > 0 && zero_below.(ob + ls))
       || (least_below.(ob + ls) < max_int
          && (tgt_hi.(t) < 0 || tgt_hi.(t) > least_below.(ob + ls))))
  in
  (* The members counted by boundary [m] of [sb]'s source rings between
     stack levels [l0] and [l1], less [apex] (a node's type, or -1). *)
  let count sb l0 l1 apex m =
    if m > tdepth.(sb) then 0
    else
      let ob = off.(sb) in
      let c = sub_id.(chain_at.(ob + m - 1)) in
      let n = value c l1 - value c l0 in
      let apex_in =
        apex >= 0 && m <= tdepth.(apex) && chain_at.(off.(apex) + m - 1) = chain_at.(ob + m - 1)
      in
      if apex_in then n - 1 else n
  in
  (* The cells of node [b] at target LCA depth [lt], over the half-ring
     whose members lie at positions [first .. last - 1] and have types
     below [lam]; it is counted between stack levels [l0] and [l1], with
     [apex], the type of a node counted there that is not a member, or -1.

     When [lam] lies on [sb]'s chain no member lies in a source ring above
     its depth; when it does not, all of them lie in the ring where the two
     chains part.  In the first case the cells from [lam]'s depth down are
     taken in turn while one of them or a deeper one violates, a test on
     the slots' suffixes, and while members are left. *)
  let decide b lt l0 l1 first last apex lam =
    let sb = src.(b) in
    let db = tdepth.(sb) and ob = off.(sb) and t = poff.(b) + lt - 1 in
    let top = if lam < 0 then 0 else tdepth.(lam) in
    let leaves =
      if lam < 0 then 0
      else if top <= db && chain_at.(ob + top - 1) = lam then top
      else lca_depth lam sb
    in
    if leaves < top then begin
      if verdict (ob + leaves) t > 0 then
        list_cell b leaves (ob + leaves) t first last (last - first)
    end
    else begin
      (* [here] members lie at depth [ls] or below. *)
      let here = ref (last - first) and ls = ref top in
      while !here > 0 && violates_from ob db t !ls do
        let inner = count sb l0 l1 apex (!ls + 1) in
        if !here > inner && verdict (ob + !ls) t > 0 then
          list_cell b !ls (ob + !ls) t first last (!here - inner);
        here := inner;
        incr ls
      done
    end
  in
  (* [run.(l)] joins the types of the node at stack level [l] and of its
     children's subtrees visited so far: the types of the half-ring that
     node is the apex of. *)
  let run = Array.make levels (-1) in
  let rec visit ~mirror v =
    let d = depth.(v) in
    let l = d - 1 in
    incr clock;
    tin.(l) <- !clock;
    stack.(l) <- v;
    let s = src.(v) in
    run.(l) <- s;
    if s >= 0 then begin
      for lt = 1 to l do
        let apex = stack.(lt - 1) and below = stack.(lt) in
        let lam = run.(lt - 1) in
        if mirror then begin
          if hi.(below) < hi.(apex) then
            decide v lt (lt - 1) lt hi.(below) hi.(apex) src.(apex) lam
        end
        else if lo.(apex) < lo.(below) then
          decide v lt (lt - 1) lt lo.(apex) lo.(below) (-1) lam
      done;
      let o = off.(s) in
      for m = 0 to tdepth.(s) - 1 do
        bump sub_id.(chain_at.(o + m)) l
      done
    end;
    let c = ref (if mirror then last_kid.(v) else v + 1) in
    while !c >= 0 && !c < stop.(v) do
      visit ~mirror !c;
      run.(l) <- join run.(l) run.(d);
      c := if mirror then prev.(!c) else stop.(!c)
    done;
    if s >= 0 && not mirror then decide v d l (-1) lo.(v) hi.(v) (-1) run.(l)
  in
  let walk_roots ~mirror =
    let v = ref 0 in
    while !v < n_nodes do
      visit ~mirror !v;
      v := stop.(!v)
    done
  in
  walk_roots ~mirror:false;
  Array.fill cnt 0 n_counters 0;
  Array.fill last 0 n_counters (-1);
  clock := 0;
  walk_roots ~mirror:true;
  let names = Array.make n_types "" in
  let rec name ty =
    if names.(ty) = "" then
      names.(ty) <-
        (let c = Xml.Type_table.component tt ty in
         match Xml.Type_table.parent tt ty with
         | None -> c
         | Some p -> name p ^ "." ^ c);
    names.(ty)
  in
  let pos_name p = name src.(node_at.(p)) in
  let violations =
    List.sort (fun (k, _, _) (k', _, _) -> Int.compare k k') !found
    |> List.map (fun (key, s, t) ->
           let pair = key / 2 in
           {
             Report.kind = (if key land 1 = 0 then Report.Min_raised else Max_increased);
             from_type = pos_name (pair / n_pos);
             to_type = pos_name (pair mod n_pos);
             source_card = card src_lo.(s) src_hi.(s);
             target_card = card tgt_lo.(t) tgt_hi.(t);
           })
  in
  let omitted = ref [] in
  for ty = n_types - 1 downto 0 do
    if not kept.(ty) then omitted := name ty :: !omitted
  done;
  (* The value-filter extension discards instances by value, which no
     cardinality reasoning can see: treat any filter as potentially
     non-inclusive. *)
  let filters = ref [] in
  Tshape.iter_all shape (fun n ->
      match n.value_filter with
      | Some v ->
          filters :=
            Printf.sprintf
              "value filter %s = %S may discard instances (narrowing)"
              n.out_name v
            :: !filters
      | None -> ());
  let has_min =
    !filters <> []
    || List.exists (fun v -> v.Report.kind = Report.Min_raised) violations
  in
  let has_max =
    List.exists (fun v -> v.Report.kind = Report.Max_increased) violations
  in
  let classification : Report.classification =
    match (has_min, has_max) with
    | false, false -> Strongly_typed
    | true, false -> Narrowing
    | false, true -> Widening
    | true, true -> Weakly_typed
  in
  { classification; violations; omitted_types = !omitted;
    warnings = warnings @ List.rev !filters }

let analyze ?warnings guide shape =
  Xmobs.Ctx.region "loss" @@ fun () ->
  let report = analyze_impl ?warnings guide shape in
  Xmobs.Ctx.add_attr "classification"
    (Xmobs.Trace.String
       (Report.classification_to_string report.Report.classification));
  report

let admissible cast (c : Report.classification) =
  match (cast, c) with
  | _, Report.Strongly_typed -> true
  | Some Ast.Cast_weak, _ -> true
  | Some Ast.Cast_narrowing, Report.Narrowing -> true
  | Some Ast.Cast_widening, Report.Widening -> true
  | _ -> false

exception Rejected of Report.loss_report

let check ?(cast = None) guide shape =
  let report = analyze guide shape in
  if admissible cast report.classification then report else raise (Rejected report)
