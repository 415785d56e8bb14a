(* Operator frame trees — the data behind EXPLAIN ANALYZE.

   A frame aggregates every evaluation of one operator at one position in
   the tree, merging by name under its parent: an XQuery subexpression
   evaluated 10,000 times inside a FLWOR loop shows up once with
   calls=10000.  A [tree] is what one request context keeps: its roots
   and the cumulative pages its store charges crossed, which the
   context's regions difference into each frame.  A tree is written only
   by the thread whose context holds it. *)

type frame = {
  name : string;
  mutable calls : int;
  mutable total_us : float; (* cumulative: includes time in children *)
  mutable child_us : float; (* time attributed to child frames *)
  mutable in_count : int;
  mutable out_count : int;
  mutable pairs : int; (* closest pairs / join attachments *)
  mutable blocks_read : int; (* block-I/O delta over the frame's subtree *)
  mutable blocks_written : int;
  mutable children : frame list; (* newest first; reversed on export *)
}

type tree = {
  mutable tops : frame list; (* root frames, newest first *)
  mutable blocks_r : int; (* cumulative page crossings charged *)
  mutable blocks_w : int;
}

let create () = { tops = []; blocks_r = 0; blocks_w = 0 }

let fresh name =
  { name; calls = 0; total_us = 0.0; child_us = 0.0; in_count = 0;
    out_count = 0; pairs = 0; blocks_read = 0; blocks_written = 0;
    children = [] }

(* Find or create [name] under [parent], or among the roots. *)
let child tree parent name =
  let siblings = match parent with None -> tree.tops | Some p -> p.children in
  match List.find_opt (fun f -> f.name = name) siblings with
  | Some f -> f
  | None ->
      let f = fresh name in
      (match parent with
      | None -> tree.tops <- f :: tree.tops
      | Some p -> p.children <- f :: p.children);
      f

(* ---------- reads ---------- *)

let roots tree = List.rev tree.tops

let self_us fr = Float.max 0.0 (fr.total_us -. fr.child_us)

let ordered_children fr = List.rev fr.children

(* Walk a name path from the roots: [lookup frames ["compile"; "morph"]]. *)
let lookup frames path =
  let rec go frames = function
    | [] -> None
    | [ name ] -> List.find_opt (fun f -> f.name = name) frames
    | name :: rest -> (
        match List.find_opt (fun f -> f.name = name) frames with
        | Some f -> go (ordered_children f) rest
        | None -> None)
  in
  go frames path

(* ---------- export ---------- *)

(* Algebra.pp-style indented operator tree, one annotated line per node. *)
let to_text frames =
  let b = Buffer.create 1024 in
  let rec go indent fr =
    Buffer.add_string b
      (Printf.sprintf "%s%-*s calls=%d time=%.3fms self=%.3fms in=%d out=%d%s blocks=%dr+%dw\n"
         indent
         (max 1 (32 - String.length indent))
         fr.name fr.calls (fr.total_us /. 1e3) (self_us fr /. 1e3)
         fr.in_count fr.out_count
         (if fr.pairs > 0 then Printf.sprintf " pairs=%d" fr.pairs else "")
         fr.blocks_read fr.blocks_written);
    List.iter (go (indent ^ "  ")) (ordered_children fr)
  in
  List.iter (go "") frames;
  Buffer.contents b

let rec frame_json fr =
  Xmutil.Json.Obj
    ([ ("name", Xmutil.Json.String fr.name);
       ("calls", Xmutil.Json.Int fr.calls);
       ("total_us", Xmutil.Json.Float fr.total_us);
       ("self_us", Xmutil.Json.Float (self_us fr));
       ("in", Xmutil.Json.Int fr.in_count);
       ("out", Xmutil.Json.Int fr.out_count);
       ("pairs", Xmutil.Json.Int fr.pairs);
       ("blocks_read", Xmutil.Json.Int fr.blocks_read);
       ("blocks_written", Xmutil.Json.Int fr.blocks_written) ]
    @
    match fr.children with
    | [] -> []
    | cs -> [ ("children", Xmutil.Json.List (List.rev_map frame_json cs)) ])

let to_json frames =
  Xmutil.Json.Obj
    [ ("profile", Xmutil.Json.List (List.map frame_json frames)) ]
