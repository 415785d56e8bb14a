open Xmutil

type pair_delta = {
  from_type : string;
  to_type : string;
  source_edges : int;
  preserved : int;
  added : int;
  lost : int;
}

type t = {
  source_edges : int;
  preserved : int;
  added : int;
  lost : int;
  added_pct : float;
  lost_pct : float;
  reversible : bool;
  deltas : pair_delta list;
}

(* A target node's instances in document order, with their ids and their
   depth: ORDER-BY may have permuted them, and the kernel needs document
   order, which output ids, as preorder ranks, give. *)
let in_document_order depth (xs : Render.instance array) =
  let xs = Array.copy xs in
  Array.stable_sort (fun (x : Render.instance) y -> Int.compare x.id y.id) xs;
  (xs, Array.map (fun (x : Render.instance) -> x.id) xs, depth)

(* Closest pairs between two instance arrays of the output document, mapped
   to source-node pairs and pushed to [codes]: a pair [(a, b)] as one int
   [a * n + b], where [n] exceeds every id, so sorted codes are sorted
   pairs.  All instances of a target node share its depth, so Def. 2
   applies as in the renderer, through the same kernel over the output's
   parent column: the closest level of the two id rows, then each [a]
   instance's run of [b] instances sharing its ancestor at that level. *)
let output_closest ~parent n codes (a, ia, da) ((b : Render.instance array), ib, db) =
  let l = Closest.level ~parent ia ~depth_a:da ib ~depth_b:db in
  if l > 0 then begin
    let runs = Closest.runs ~parent ~hops:(db - l) ib in
    let found = Closest.find ~parent ~hops:(da - l) runs ia in
    Array.iteri
      (fun i (x : Render.instance) ->
        let g = found.(i) in
        if g >= 0 && x.source >= 0 then
          for k = runs.offs.(g) to runs.offs.(g + 1) - 1 do
            if b.(k).source >= 0 then
              ignore (Vec.push codes ((x.source * n) + b.(k).source))
          done)
      a
  end

(* The codes ascending, each once.  Instances are visited in document
   order, so where the output keeps the source's order, as MUTATE does, the
   codes arrive ascending and distinct, and the sort is skipped. *)
let sort_uniq codes =
  let a = Vec.to_array codes in
  let rec ascending i = i >= Array.length a || (a.(i - 1) < a.(i) && ascending (i + 1)) in
  if ascending 1 then a
  else begin
    Array.stable_sort Int.compare a;
    let k = ref 0 in
    Array.iteri
      (fun i c ->
        if i = 0 || c <> a.(!k - 1) then begin
          a.(!k) <- c;
          incr k
        end)
      a;
    Array.sub a 0 !k
  end

(* How many codes two ascending arrays without repeats share: one merge. *)
let common x y =
  let rec go i j acc =
    if i >= Array.length x || j >= Array.length y then acc
    else if x.(i) < y.(j) then go (i + 1) j acc
    else if x.(i) > y.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) (acc + 1)
  in
  go 0 0 0

let measure ?ctx store (shape : Tshape.t) : t =
  Xmobs.Ctx.region ctx Xmobs.Layer.quantify @@ fun () ->
  let tt = Store.Shredded.types store in
  let n = Store.Shredded.node_count store in
  let insts, iter_closest = Render.instances_with_closest ?ctx store shape in
  (* The output's parent column, by output id. *)
  let total = List.fold_left (fun k (_, arr) -> k + Array.length arr) 0 insts in
  let parent = Array.make total (-1) in
  List.iter
    (fun (_, arr) -> Array.iter (fun (x : Render.instance) -> parent.(x.id) <- x.parent) arr)
    insts;
  (* Sourced target nodes only; group instance arrays by source type so a
     clone contributes to the same source pair. *)
  let by_source = Hashtbl.create 16 in
  List.iter
    (fun ((tn : Tshape.node), arr) ->
      match tn.source with
      | Some s ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_source s) in
          Hashtbl.replace by_source s (in_document_order (Tshape.depth_in tn) arr :: prev)
      | None -> ())
    insts;
  let kept = List.of_seq (Hashtbl.to_seq_keys by_source) in
  let kept = List.sort_uniq compare kept in
  let totals = ref (0, 0, 0, 0) in
  let deltas = ref [] in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          if s1 < s2 then begin
            (* The source's pairs arrive ascending and distinct. *)
            let src = Vec.create () in
            iter_closest s1 s2 (fun p c ->
                ignore (Vec.push src ((p * n) + c)));
            let src = Vec.to_array src in
            let out = Vec.create () in
            List.iter
              (fun a1 ->
                List.iter (output_closest ~parent n out a1) (Hashtbl.find by_source s2))
              (Hashtbl.find by_source s1);
            let out = sort_uniq out in
            let preserved = common src out in
            let added = Array.length out - preserved in
            let lost = Array.length src - preserved in
            let se, pr, ad, lo = !totals in
            totals := (se + Array.length src, pr + preserved, ad + added, lo + lost);
            if added > 0 || lost > 0 then
              deltas :=
                {
                  from_type = Xml.Type_table.qname tt s1;
                  to_type = Xml.Type_table.qname tt s2;
                  source_edges = Array.length src;
                  preserved;
                  added;
                  lost;
                }
                :: !deltas
          end)
        kept)
    kept;
  let source_edges, preserved, added, lost = !totals in
  let pct n =
    if source_edges = 0 then 0.0
    else 100.0 *. float_of_int n /. float_of_int source_edges
  in
  {
    source_edges;
    preserved;
    added;
    lost;
    added_pct = pct added;
    lost_pct = pct lost;
    reversible = added = 0 && lost = 0;
    deltas = List.rev !deltas;
  }

let pp fmt m =
  Format.fprintf fmt
    "closest edges among kept types: %d source, %d preserved, %d added \
     (%.1f%%), %d lost (%.1f%%)@."
    m.source_edges m.preserved m.added m.added_pct m.lost m.lost_pct;
  Format.fprintf fmt "the transformation is %s@."
    (if m.reversible then "reversible"
     else if m.lost = 0 then "inclusive but additive"
     else if m.added = 0 then "non-additive but non-inclusive"
     else "both additive and non-inclusive");
  List.iter
    (fun d ->
      Format.fprintf fmt "  %s <-> %s: %d source edges, %d preserved, +%d, -%d@."
        d.from_type d.to_type d.source_edges d.preserved d.added d.lost)
    m.deltas

let to_string m = Format.asprintf "%a" pp m

let to_json (m : t) : Xmutil.Json.t =
  Xmutil.Json.Obj
    [
      ("source_edges", Xmutil.Json.Int m.source_edges);
      ("preserved", Xmutil.Json.Int m.preserved);
      ("added", Xmutil.Json.Int m.added);
      ("lost", Xmutil.Json.Int m.lost);
      ("added_pct", Xmutil.Json.Float m.added_pct);
      ("lost_pct", Xmutil.Json.Float m.lost_pct);
      ("reversible", Xmutil.Json.Bool m.reversible);
      ("deltas",
       Xmutil.Json.List
         (List.map
            (fun d ->
              Xmutil.Json.Obj
                [
                  ("from", Xmutil.Json.String d.from_type);
                  ("to", Xmutil.Json.String d.to_type);
                  ("source_edges", Xmutil.Json.Int d.source_edges);
                  ("preserved", Xmutil.Json.Int d.preserved);
                  ("added", Xmutil.Json.Int d.added);
                  ("lost", Xmutil.Json.Int d.lost);
                ])
            m.deltas));
    ]
