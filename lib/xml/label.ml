let is_attribute s = String.length s > 0 && s.[0] = '@'

let strip_at s = if is_attribute s then String.sub s 1 (String.length s - 1) else s

(* A label component, lowercased and without its marker. *)
type comp = { text : string; attr : bool }

(* Does [name] spell [c]?  Under [lax] a bare component also spells an
   attribute name. *)
let spells ~lax c name =
  (if c.attr then is_attribute name else lax || not (is_attribute name))
  && String.lowercase_ascii (strip_at name) = c.text

let resolve ~name ~parent label candidates =
  (* Last component first: it is compared with the candidate itself. *)
  let comps =
    List.rev_map
      (fun p -> { text = String.lowercase_ascii (strip_at p); attr = is_attribute p })
      (String.split_on_char '.' (String.trim label))
  in
  let matches ~lax x =
    let rec check x = function
      | [] -> true
      | c :: rest -> (
          spells ~lax c (name x)
          &&
          match (rest, parent x) with
          | [], _ -> true
          | _, None -> false
          | _, Some p -> check p rest)
    in
    check x comps
  in
  match List.filter (matches ~lax:false) candidates with
  | [] -> List.filter (matches ~lax:true) candidates
  | found -> found
