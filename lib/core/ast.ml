type pattern =
  | Label of { label : string; bang : bool }
  | Tree of pattern * pattern list
  | Star
  | Dbl_star
  | Children of pattern
  | Descendants of pattern
  | Drop of pattern
  | Clone of pattern
  | New of string
  | Restrict of pattern
  | Value_eq of pattern * string
  | Order_by of pattern * string * bool

type stage =
  | Morph of pattern list
  | Mutate of pattern list
  | Translate of (string * string) list

type cast = Cast_weak | Cast_narrowing | Cast_widening

type t =
  | Stage of stage
  | Compose of t * t
  | Cast of cast * t
  | Type_fill of t

let sep_space fmt () = Format.pp_print_string fmt " "

let rec pp_pattern fmt = function
  | Label { label; bang } -> Format.fprintf fmt "%s%s" (if bang then "!" else "") label
  (* A tree whose only item is a star is the sugar form; print it the way
     the parser canonicalizes it so pp/parse is stable. *)
  | Tree (p, [ Star ]) -> pp_pattern fmt (Children p)
  | Tree (p, [ Dbl_star ]) -> pp_pattern fmt (Descendants p)
  | Tree (p, items) ->
      Format.fprintf fmt "%a [ %a ]" pp_pattern p
        (Format.pp_print_list ~pp_sep:sep_space pp_pattern)
        items
  | Star -> Format.pp_print_string fmt "*"
  | Dbl_star -> Format.pp_print_string fmt "**"
  | Children p -> Format.fprintf fmt "%a [*]" pp_pattern p
  | Descendants p -> Format.fprintf fmt "%a [**]" pp_pattern p
  | Drop p -> Format.fprintf fmt "(DROP %a)" pp_pattern p
  | Clone p -> Format.fprintf fmt "(CLONE %a)" pp_pattern p
  | New l -> Format.fprintf fmt "(NEW %s)" l
  | Restrict p -> Format.fprintf fmt "(RESTRICT %a)" pp_pattern p
  | Value_eq (p, v) -> Format.fprintf fmt "%a = \"%s\"" pp_pattern p v
  | Order_by (p, k, desc) ->
      Format.fprintf fmt "%a ORDER-BY %s%s" pp_pattern p k (if desc then " desc" else "")

let pp_stage fmt = function
  | Morph ps ->
      Format.fprintf fmt "MORPH %a"
        (Format.pp_print_list ~pp_sep:sep_space pp_pattern)
        ps
  | Mutate ps ->
      Format.fprintf fmt "MUTATE %a"
        (Format.pp_print_list ~pp_sep:sep_space pp_pattern)
        ps
  | Translate pairs ->
      Format.fprintf fmt "TRANSLATE %a"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           (fun fmt (a, b) -> Format.fprintf fmt "%s -> %s" a b))
        pairs

let rec pp fmt = function
  | Stage s -> pp_stage fmt s
  | Compose (a, b) -> Format.fprintf fmt "%a | %a" pp a pp b
  | Cast (Cast_weak, g) -> Format.fprintf fmt "CAST (%a)" pp g
  | Cast (Cast_narrowing, g) -> Format.fprintf fmt "CAST-NARROWING (%a)" pp g
  | Cast (Cast_widening, g) -> Format.fprintf fmt "CAST-WIDENING (%a)" pp g
  | Type_fill g -> Format.fprintf fmt "TYPE-FILL (%a)" pp g

let to_string g = Format.asprintf "%a" pp g
