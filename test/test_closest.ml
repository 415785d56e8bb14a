(* The id kernel ([Xmutil.Closest], run by [Store.Shredded] and
   [Render]) against the Dewey kernel it replaced ([Dewey_oracle]), on
   random collections: generated trees, the deeper reshaping documents of
   [Test_loss], and collections of one to three trees.  For every node the
   derived Dewey numbers ([Doc.dewey], and [Shredded.node] on the shredded
   and on the loaded store) are the ones indexing assigns; for every type
   pair the join level, the runs at that level and each parent's run are
   the reference's. *)

open Xmutil

let gens =
  QCheck2.Gen.
    [ ("generated", map (fun t -> [ t ]) Gen.gen_tree);
      ("reshaping", map (fun t -> [ t ]) Test_loss.gen_shaped_tree);
      ("collection", list_size (int_range 1 3) Gen.gen_tree) ]

let loaded store =
  let path = Filename.temp_file "xmorph" ".store" in
  Store.Shredded.save store path;
  let s = Store.Shredded.load path in
  Sys.remove path;
  s

(* Type pairs checked, and those whose join pairs some parent with a
   child. *)
let pairs = ref 0
let joins = ref 0

let check_forest trees =
  let doc = Xml.Doc.of_forest trees in
  let store = Store.Shredded.shred doc in
  let back = loaded store in
  let numbers = Dewey_oracle.number trees in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Alcotest.failf "%s\n%s" m
          (String.concat "\n" (List.map Xml.Printer.to_string trees)))
      fmt
  in
  if Array.length numbers <> Xml.Doc.node_count doc then fail "node count";
  Array.iteri
    (fun i d ->
      let agree (d' : Dewey.t) what =
        if not (Dewey.equal d d') then
          fail "node %d: %s Dewey %s, indexing gives %s" i what (Dewey.to_string d')
            (Dewey.to_string d)
      in
      agree (Xml.Doc.dewey doc i) "Doc.dewey";
      agree (Store.Shredded.node store i).dewey "Shredded.node";
      agree (Store.Shredded.node back i).dewey "loaded Shredded.node")
    numbers;
  let tt = Xml.Doc.types doc and parent = Xml.Doc.parent_column doc in
  let types = List.init (Xml.Type_table.count tt) Fun.id in
  List.iter
    (fun t ->
      List.iter
        (fun u ->
          incr pairs;
          let ids_t = Xml.Doc.nodes_of_type doc t and ids_u = Xml.Doc.nodes_of_type doc u in
          let dt = Array.map (Array.get numbers) ids_t
          and du = Array.map (Array.get numbers) ids_u in
          let l = Dewey_oracle.closest_level dt du in
          let depth = Xml.Type_table.depth tt in
          let level =
            Closest.level ~parent ids_t ~depth_a:(depth t) ids_u ~depth_b:(depth u)
          in
          if level <> l then
            fail "types %d, %d: Closest.level %d, reference %d" t u level l;
          List.iter
            (fun s ->
              let jl = Store.Shredded.join_level s t u in
              if jl <> l then fail "types %d, %d: join_level %d, reference %d" t u jl l)
            [ store; back ];
          if l > 0 then begin
            let reference = Dewey_oracle.runs ~level:l du in
            let runs = Store.Shredded.grouped_sequence back u ~level:l in
            if Test_store.spans runs <> reference then fail "types %d, %d: runs at level %d differ" t u l;
            Array.iteri
              (fun g key ->
                if not (Dewey.equal numbers.(key) (Dewey.prefix du.(runs.offs.(g)) l)) then
                  fail "type %d: run %d's key is not its %d-prefix" u g l)
              runs.keys;
            let found = Closest.find ~parent ~hops:(depth t - l) runs ids_t in
            let expected = Dewey_oracle.parent_runs ~level:l du reference dt in
            if found <> expected then fail "types %d, %d: parents' runs differ" t u;
            if Array.exists (fun g -> g >= 0) found then incr joins
          end)
        types)
    types

let test_id_kernel_matches_dewey_kernel () =
  pairs := 0;
  joins := 0;
  List.iteri
    (fun k (_, gen) ->
      List.iter check_forest
        (QCheck2.Gen.generate ~n:150 ~rand:(Random.State.make [| 1735; k |]) gen))
    gens;
  Printf.printf "%d type pairs checked, %d non-empty joins\n" !pairs !joins;
  if !pairs = 0 || !joins = 0 then
    Alcotest.failf "vacuous: %d type pairs, %d non-empty joins" !pairs !joins

let suite =
  [ Alcotest.test_case "id kernel = Dewey kernel on random collections" `Quick
      test_id_kernel_matches_dewey_kernel ]
