(* Shared QCheck generators for random XML trees and documents. *)

let gen_name =
  QCheck2.Gen.(
    let* base = oneofl [ "a"; "b"; "c"; "item"; "name"; "title"; "x1"; "n-s" ] in
    return base)

let gen_text =
  QCheck2.Gen.(
    oneofl [ "hello"; "a & b"; "<tag>"; "it's"; "\"quoted\""; "x < y > z"; "1984"; "  spaced  " ])

let gen_attrs =
  QCheck2.Gen.(
    let* n = int_range 0 2 in
    let rec distinct acc k =
      if k = 0 then return (List.rev acc)
      else
        let* name = gen_name in
        if List.mem_assoc name acc then distinct acc k
        else
          let* v = gen_text in
          distinct ((name, v) :: acc) (k - 1)
    in
    distinct [] n)

let rec gen_tree_sized depth =
  QCheck2.Gen.(
    let* name = gen_name in
    let* attrs = gen_attrs in
    if depth = 0 then
      let* txt = opt gen_text in
      let children = match txt with Some t -> [ Xml.Tree.Text t ] | None -> [] in
      return (Xml.Tree.Element { name; attrs; children })
    else
      let* n = int_range 0 3 in
      let* children =
        list_size (return n)
          (oneof
             [
               gen_tree_sized (depth - 1);
               (let* t = gen_text in
                return (Xml.Tree.Text t));
             ])
      in
      return (Xml.Tree.Element { name; attrs; children }))

let gen_tree = QCheck2.Gen.(int_range 0 3 >>= gen_tree_sized)

(* Documents with label collisions across levels, to exercise ambiguity,
   closest joins, and loss analysis. *)
let gen_doc = QCheck2.Gen.map Xml.Doc.of_tree gen_tree

(* Twenty generated trees from a fixed seed: pinned tests use these so the
   fuzz shapes are reproducible byte for byte. *)
let fixed_trees =
  QCheck2.Gen.generate ~n:20 ~rand:(Random.State.make [| 2012 |]) gen_tree
