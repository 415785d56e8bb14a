(* Host speed from a fixed kernel: see calib.mli. *)

let ref_s = 0.002
let neighbours = 16

type node = { label : string; attrs : (string * string) list; kids : node list; text : string }

(* The kernel's input: a fixed pseudo-random document, made once. *)
let doc =
  let rng = ref 12345 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng lsr 8
  in
  let buf = Buffer.create (1 lsl 18) in
  let rec gen depth =
    let label = Printf.sprintf "element%02d" (next () mod 64) in
    Buffer.add_char buf '<';
    Buffer.add_string buf label;
    if next () mod 3 = 0 then Printf.bprintf buf " id=\"%d\"" (next ());
    Buffer.add_char buf '>';
    let n = if depth >= 4 then 0 else next () mod 7 in
    if n = 0 then Buffer.add_string buf (String.make (4 + (next () mod 24)) 'x')
    else for _ = 1 to n do gen (depth + 1) done;
    Buffer.add_string buf "</";
    Buffer.add_string buf label;
    Buffer.add_char buf '>'
  in
  Buffer.add_string buf "<root>";
  while Buffer.length buf < 150_000 do gen 0 done;
  Buffer.add_string buf "</root>";
  Buffer.contents buf

let kernel () =
  let pos = ref 0 in
  let upto c =
    let j = String.index_from doc !pos c in
    let s = String.sub doc !pos (j - !pos) in
    pos := j;
    s
  in
  let rec element () =
    incr pos;
    let head = upto '>' in
    incr pos;
    let label, attrs =
      match String.index_opt head ' ' with
      | None -> (head, [])
      | Some i ->
          ( String.sub head 0 i,
            match String.split_on_char '=' (String.sub head (i + 1) (String.length head - i - 1)) with
            | [ k; v ] -> [ (k, String.sub v 1 (String.length v - 2)) ]
            | _ -> [] )
    in
    let rec kids acc = if doc.[!pos + 1] = '/' then List.rev acc else kids (element () :: acc) in
    let node =
      if doc.[!pos] = '<' then { label; attrs; kids = kids []; text = "" }
      else { label; attrs; kids = []; text = upto '<' }
    in
    pos := String.index_from doc !pos '>' + 1;
    node
  in
  let tree = element () in
  let index = Hashtbl.create 1024 in
  let rec walk t =
    Hashtbl.replace index t.label (t :: Option.value ~default:[] (Hashtbl.find_opt index t.label));
    List.iter walk t.kids
  in
  walk tree;
  let buf = Buffer.create 65536 in
  let rec emit t =
    Buffer.add_char buf '<';
    Buffer.add_string buf t.label;
    List.iter (fun (k, v) -> Printf.bprintf buf " %s=\"%s\"" k v) t.attrs;
    Buffer.add_char buf '>';
    Buffer.add_string buf t.text;
    List.iter emit t.kids;
    Buffer.add_string buf "</";
    Buffer.add_string buf t.label;
    Buffer.add_char buf '>'
  in
  emit tree;
  Hashtbl.iter (fun _ ts -> Buffer.add_string buf (string_of_int (List.length ts))) index;
  Sys.opaque_identity (Buffer.length buf)

(* Samples in the order taken, so midpoints ascend. *)
type t = { mutable rev : (float * float) list; mutable arr : (float * float) array }

let create () = { rev = []; arr = [||] }
let of_samples l = { rev = List.rev l; arr = Array.of_list l }

let sample c =
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  ignore (kernel ());
  let t1 = Unix.gettimeofday () in
  c.rev <- ((t0 +. t1) /. 2., t1 -. t0) :: c.rev

let scale c at =
  if Array.length c.arr <> List.length c.rev then c.arr <- Array.of_list (List.rev c.rev);
  let a = c.arr in
  let n = Array.length a in
  if n = 0 then invalid_arg "Calib.scale: no samples";
  (* The first sample at or after [at], then a window of [neighbours]
     around it, shifted to stay inside the array. *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst a.(mid) < at then first (mid + 1) hi else first lo mid
  in
  let w = min n neighbours in
  let lo = max 0 (min (n - w) (first 0 n - (w / 2))) in
  ref_s /. Stats.median (Stats.sorted (List.init w (fun i -> snd a.(lo + i))))

let scaled c ~start dt = dt *. scale c (start +. (dt /. 2.))

let durations c = Stats.sorted (List.map snd c.rev)
