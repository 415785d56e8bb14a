type t =
  | Element of { name : string; attrs : (string * string) list; children : t list }
  | Text of string

let element ?(attrs = []) name children = Element { name; attrs; children }

let text s = Text s

let name = function Element { name; _ } -> name | Text _ -> ""

let children = function Element { children; _ } -> children | Text _ -> []

let text_content = function
  | Text s -> s
  | Element { children; _ } ->
      let b = Buffer.create 16 in
      List.iter (function Text s -> Buffer.add_string b s | Element _ -> ()) children;
      Buffer.contents b

let deep_text t =
  let b = Buffer.create 64 in
  let rec go = function
    | Text s -> Buffer.add_string b s
    | Element { children; _ } -> List.iter go children
  in
  go t;
  Buffer.contents b

let count_elements t =
  let rec go acc = function
    | Text _ -> acc
    | Element { children; _ } -> List.fold_left go (acc + 1) children
  in
  go 0 t

let count_nodes t =
  let rec go acc = function
    | Text _ -> acc
    | Element { attrs; children; _ } ->
        List.fold_left go (acc + 1 + List.length attrs) children
  in
  go 0 t

let is_blank s =
  let n = String.length s in
  let rec go i =
    i >= n || (match s.[i] with ' ' | '\t' | '\n' | '\r' -> go (i + 1) | _ -> false)
  in
  go 0

(* Merge adjacent text nodes (serialization concatenates them), then drop
   whitespace-only text. *)
let normalize_children children =
  let rec merge = function
    | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  List.filter
    (function Text s -> not (is_blank s) | Element _ -> true)
    (merge children)

let rec equal a b =
  match (a, b) with
  | Text x, Text y -> x = y
  | Element ea, Element eb ->
      let sort_attrs l = List.sort compare l in
      ea.name = eb.name
      && sort_attrs ea.attrs = sort_attrs eb.attrs
      && List.equal equal (normalize_children ea.children)
           (normalize_children eb.children)
  | _ -> false

(* Canonicalize for order-insensitive comparison: sort attributes, then sort
   normalized children by their canonical form, recursively. *)
let rec canonical t =
  match t with
  | Text _ -> t
  | Element { name; attrs; children } ->
      let children =
        List.sort compare (List.map canonical (normalize_children children))
      in
      Element { name; attrs = List.sort compare attrs; children }

let equal_unordered a b = canonical a = canonical b
