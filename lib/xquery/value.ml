type 'n item_of =
  | Node of 'n
  | Attr of string * string
  | Str of string
  | Num of float
  | Bool of bool

type item = Xml.Tree.t item_of
type t = item list

(* The xs:double spellings of NaN and the infinities, whatever the sign
   bit of a NaN. *)
let num_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else string_of_float f

let atomize node_text = function
  | Node n -> node_text n
  | Attr (_, v) -> v
  | Str s -> s
  | Num f -> num_to_string f
  | Bool b -> if b then "true" else "false"

let string_value = atomize Xml.Tree.deep_text

let effective_bool = function
  | [] -> false
  | [ Bool b ] -> b
  | [ Num f ] -> f <> 0.0 && not (Float.is_nan f)
  | [ Str s ] -> s <> ""
  | _ -> true (* at least one node *)

let rec skip_space s i =
  if i < String.length s && (match s.[i] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
  then skip_space s (i + 1)
  else i

let rec skip_digits s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then skip_digits s (i + 1) else i

(* XPath 1.0 Number, between optional whitespace:
   S? '-'? (Digits ('.' Digits?)? | '.' Digits) S?.  Checked in place;
   the digits are then converted by [float_of_string], which reads that
   syntax the same way, on a copy only when whitespace surrounds them. *)
let parse_number s =
  let n = String.length s in
  let start = skip_space s 0 in
  let first = if start < n && s.[start] = '-' then start + 1 else start in
  let point = skip_digits s first in
  let stop = if point < n && s.[point] = '.' then skip_digits s (point + 1) else point in
  if (point = first && stop <= point + 1) || skip_space s stop <> n then None
  else if start = 0 && stop = n then Some (float_of_string s)
  else Some (float_of_string (String.sub s start (stop - start)))

let number node_text it =
  match it with
  | Num f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Node _ | Attr _ | Str _ -> parse_number (atomize node_text it)

let to_number = number Xml.Tree.deep_text

let equal node_text a b =
  match (a, b) with
  | Num x, Num y -> x = y
  | Bool x, Bool y -> x = y
  | (Num _, _ | _, Num _) -> (
      match (number node_text a, number node_text b) with
      | Some x, Some y -> x = y
      | _ -> false)
  | _ -> atomize node_text a = atomize node_text b

let item_equal = equal Xml.Tree.deep_text

let to_trees seq =
  List.map
    (fun it ->
      match it with
      | Node n -> n
      | other -> Xml.Tree.Text (string_value other))
    seq

let pp fmt seq =
  List.iteri
    (fun i it ->
      if i > 0 then Format.pp_print_string fmt " ";
      match it with
      | Node n -> Format.pp_print_string fmt (Xml.Printer.to_string n)
      | Attr (k, v) -> Format.fprintf fmt "%s=%S" k v
      | other -> Format.pp_print_string fmt (string_value other))
    seq

let to_string seq = Format.asprintf "%a" pp seq
