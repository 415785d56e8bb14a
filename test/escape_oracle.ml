(* The escaper as it was before it looked each byte up in a table: the
   reference [Xml.Printer]'s escaping is checked against
   (test_escape_oracle.ml).  Unchanged but for the two entry points, which
   take a whole slice and so need no bounds check of their own. *)

(* Escape [s] from [start] (up to [i] scanned) to [stop]: each run
   between special characters goes in with one [add_substring].  ['"'] is
   special only in attribute values. *)
let rec add_escaped ~attr b s start i stop =
  if i = stop then Buffer.add_substring b s start (stop - start)
  else
    let entity =
      match String.unsafe_get s i with
      | '&' -> "&amp;"
      | '<' -> "&lt;"
      | '>' -> "&gt;"
      | '"' when attr -> "&quot;"
      | _ -> ""
    in
    if String.length entity = 0 then add_escaped ~attr b s start (i + 1) stop
    else begin
      Buffer.add_substring b s start (i - start);
      Buffer.add_string b entity;
      add_escaped ~attr b s (i + 1) (i + 1) stop
    end

let add_escaped_text b s pos len = add_escaped ~attr:false b s pos pos (pos + len)

let add_escaped_attr b s pos len = add_escaped ~attr:true b s pos pos (pos + len)
