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

let node_qname guide (n : Tshape.node) =
  match n.source with
  | Some s -> Xml.Type_table.qname (Xml.Dataguide.types guide) s
  | None -> n.out_name ^ " (new)"

(* The pairwise analysis is quadratic in the number of kept types, so both
   path-cardinality lookups are precomputed:

   - source side: [src_prod.(ty).(d)] is the product of edge adornments on
     the path from depth [d] (exclusive) down to [ty]; Def. 6's
     [pathCard(t, u)] is then [src_prod.(u).(lca_depth t u)], where the LCA
     depth is the common-prefix length of the two types' ancestor chains;
   - target side: the same cumulative products over predicted edge
     cardinalities (Def. 7), per target node, with its ancestor chain.

   Both chains are int arrays, root first, so each pair costs two prefix
   scans and no parent walks, hashing or allocation.

   This keeps the compile phase flat and tiny as the paper reports (the
   20 ms "compile" line of Fig. 10). *)
let analyze_impl ?(warnings = []) guide (shape : Tshape.t) : Report.loss_report =
  let nodes = ref [] in
  Tshape.iter shape (fun n -> if n.source <> None then nodes := n :: !nodes);
  let nodes = Array.of_list (List.rev !nodes) in
  let tt = Xml.Dataguide.types guide in
  let n_types = Xml.Type_table.count tt in
  (* Source cumulative products and ancestor chains; type ids are
     interned parents-first. *)
  let src_prod = Array.make n_types [||] and chains = Array.make n_types [||] in
  Xml.Type_table.iter tt (fun ty ->
      let k = Xml.Type_table.depth tt ty in
      let a = Array.make (k + 1) Card.one in
      (match Xml.Type_table.parent tt ty with
      | None ->
          if k >= 1 then a.(0) <- Xml.Dataguide.card guide ty;
          chains.(ty) <- [| ty |]
      | Some p ->
          let ap = src_prod.(p) in
          let c = Xml.Dataguide.card guide ty in
          for d = 0 to k - 1 do
            a.(d) <- Card.mul ap.(d) c
          done;
          chains.(ty) <- Array.append chains.(p) [| ty |]);
      src_prod.(ty) <- a);
  let src_path_card t u =
    if t = u then Card.one
    else
      let l = Dewey.common_prefix_len chains.(t) chains.(u) in
      if l >= Array.length chains.(u) then Card.one else src_prod.(u).(l)
  in
  (* Target side: per visible node, its ancestor chain (uids, root first)
     and cumulative predicted products. *)
  let tgt_info = Hashtbl.create 64 in
  let rec build (n : Tshape.node) (anc_uids : int list) (prods : Card.t list) =
    (* [prods] is, per ancestor depth d (same order as anc_uids, plus the
       node itself at the end), the product from depth d down to [n]. *)
    let pred = predicted_card guide n in
    let prods = List.map (fun p -> Card.mul p pred) prods @ [ Card.one ] in
    let anc_uids = anc_uids @ [ n.uid ] in
    Hashtbl.replace tgt_info n.uid
      (Array.of_list anc_uids, Array.of_list prods);
    List.iter (fun c -> build c anc_uids prods) n.children
  in
  List.iter (fun r -> build r [] []) shape.Tshape.roots;
  let tgt_nodes =
    Array.map (fun (n : Tshape.node) -> Hashtbl.find tgt_info n.uid) nodes
  in
  (* Between distinct target nodes [i] and [j]; the deepest common ancestor
     is the last entry of the chains' common prefix. *)
  let tgt_path_card i j =
    let anc_a, _ = tgt_nodes.(i) and anc_b, prods_b = tgt_nodes.(j) in
    if anc_a.(0) <> anc_b.(0) then Card.zero
    else prods_b.(Dewey.common_prefix_len anc_a anc_b - 1)
  in
  let violations = ref [] in
  let push kind a b src tgt =
    violations :=
      { Report.kind; from_type = node_qname guide a; to_type = node_qname guide b;
        source_card = src; target_card = tgt }
      :: !violations
  in
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let a = nodes.(i) and b = nodes.(j) in
        match (a.source, b.source) with
        | Some sa, Some sb when sa <> sb ->
            let src = src_path_card sa sb in
            let tgt = tgt_path_card i j in
            if Card.min_raised_from_zero ~src ~tgt then
              push Report.Min_raised a b src tgt;
            if Card.max_increased ~src ~tgt then
              push Report.Max_increased a b src tgt
        | _ -> ()
      end
    done
  done;
  let kept = Hashtbl.create 16 in
  Array.iter
    (fun (x : Tshape.node) ->
      match x.source with Some s -> Hashtbl.replace kept s () | None -> ())
    nodes;
  let omitted =
    List.filter_map
      (fun ty ->
        if Hashtbl.mem kept ty then None
        else Some (Xml.Type_table.qname (Xml.Dataguide.types guide) ty))
      (Xml.Dataguide.all_types guide)
  in
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
    || List.exists (fun v -> v.Report.kind = Report.Min_raised) !violations
  in
  let has_max =
    List.exists (fun v -> v.Report.kind = Report.Max_increased) !violations
  in
  let classification : Report.classification =
    match (has_min, has_max) with
    | false, false -> Strongly_typed
    | true, false -> Narrowing
    | false, true -> Widening
    | true, true -> Weakly_typed
  in
  {
    classification;
    violations = List.rev !violations;
    omitted_types = omitted;
    warnings = warnings @ List.rev !filters;
  }

let analyze ?warnings guide shape =
  Xmobs.Obs.phase "loss" @@ fun () ->
  let report = analyze_impl ?warnings guide shape in
  Xmobs.Trace.add_attr "classification"
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
