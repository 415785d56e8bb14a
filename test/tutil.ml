(* Small helpers shared by test modules. *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  if m = 0 then true
  else begin
    let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
    go 0
  end

(* Compare XML text for equality as trees (whitespace-insensitive). *)
let xml_equal a b =
  Xml.Tree.equal (Xml.Parser.parse a) (Xml.Parser.parse b)

let check_xml msg expected actual_tree =
  if not (Xml.Tree.equal (Xml.Parser.parse expected) actual_tree) then
    Alcotest.failf "%s:@.expected:@.%s@.got:@.%s" msg
      (Xml.Printer.to_string_indented (Xml.Parser.parse expected))
      (Xml.Printer.to_string_indented actual_tree)

(* Run [fns] on at most [k] domains — the caller plus [k - 1] spawned ones,
   each claiming the next index from a shared counter — and return their
   results in input order.  Every closure runs even if one raises; the
   lowest-index exception is then re-raised. *)
let on_domains k fns =
  let fns = Array.of_list fns in
  let n = Array.length fns in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (try Ok (fns.(i) ()) with e -> Error e);
      work ()
    end
  in
  let spawned = List.init (max 0 (min k n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  Array.to_list
    (Array.map
       (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
       results)
