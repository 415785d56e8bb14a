(* Benchmark-side spans around calls into each layer.

   The recorder is off unless a traced run turns it on; [with_span] then
   costs one branch.  Spans nest through a per-thread stack, carry the
   operation id they belong to, and stay in memory until [to_json] writes
   them out at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  op : string;  (** operation id shared by every span of one operation *)
  start : float;  (** seconds *)
  stop : float;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 1
let spans : span list ref = ref []
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4
let current_op : (int, string) Hashtbl.t = Hashtbl.create 4

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enable () = on := true

let with_op op f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    locked (fun () -> Hashtbl.replace current_op tid op);
    Fun.protect ~finally:(fun () -> locked (fun () -> Hashtbl.remove current_op tid)) f
  end

let record ~op ~name ~start ~stop =
  locked (fun () ->
      let id = !next_id in
      incr next_id;
      spans := { id; parent = 0; name; op; start; stop } :: !spans)

let with_span name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> 0))
    in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      locked (fun () ->
          (match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ());
          let op = Option.value ~default:"" (Hashtbl.find_opt current_op tid) in
          spans := { id; parent; name; op; start; stop } :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let all () = locked (fun () -> List.rev !spans)

(* Self time: the span's duration minus the union of its children's
   intervals, each clipped to the parent. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let iv =
        List.filter_map
          (fun c ->
            let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
            if b > a then Some (a, b) else None)
          (Hashtbl.find_all children s.id)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) iv
      in
      (s, Float.max 0. (s.stop -. s.start -. covered)))
    spans

(* Per layer name: the self time summed within each operation, one value
   per operation the layer appeared in. *)
let self_by_op spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let key = (s.name, s.op) in
      Hashtbl.replace tbl key
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl key)))
    (self_times spans);
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (name, _) v ->
      Hashtbl.replace by_name name
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    tbl;
  by_name

let to_json spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Xmutil.Json.List
    (List.map
       (fun s ->
         Xmutil.Json.Obj
           [ ("id", Xmutil.Json.Int s.id);
             ("parent", Xmutil.Json.Int s.parent);
             ("name", Xmutil.Json.String s.name);
             ("op", Xmutil.Json.String s.op);
             ("start_us", Xmutil.Json.Float ((s.start -. t0) *. 1e6));
             ("dur_us", Xmutil.Json.Float ((s.stop -. s.start) *. 1e6)) ])
       spans)
