(* Differential and robustness fuzzing across subsystems. *)

open Xmorph

(* --- random small queries over the Figure-1 vocabulary --- *)

let gen_path =
  QCheck2.Gen.(
    let* root = oneofl [ "//author"; "//book"; "//name"; "/result/author"; "//title" ] in
    let* steps =
      list_size (int_range 0 2)
        (oneofl [ "/name"; "/title"; "/book"; "/book/title"; "/text()" ])
    in
    return (root ^ String.concat "" steps))

let gen_query =
  QCheck2.Gen.(
    oneof
      [
        gen_path;
        (let* p = gen_path in
         return (Printf.sprintf "count(%s)" p));
        (let* p = gen_path in
         return (Printf.sprintf "distinct-values(%s)" p));
        (let* p = gen_path in
         let* q = gen_path in
         return (Printf.sprintf "for $x in %s return <r>{$x}{%s}</r>" p q));
        (let* p = gen_path in
         return
           (Printf.sprintf "for $x in %s order by $x return string($x)" p));
        (let* p = gen_path in
         return (Printf.sprintf "some $x in %s satisfies $x = \"A\"" p));
        (let* p = gen_path in
         return (Printf.sprintf "string-join(%s, \"|\")" p));
        (let* p = gen_path in
         return (Printf.sprintf "upper-case(string(%s))" p));
        (let* p = gen_path in
         return (Printf.sprintf "substring(string(%s), 1, 2)" p));
        (let* p = gen_path in
         return (Printf.sprintf "%s[position() = 2]" p));
        (let* p = gen_path in
         return (Printf.sprintf "%s[last()]" p));
      ])

(* The architectures agree on every query: [Guarded.Logical] and the
   physical run on the value they compute, and the served body
   ([Exec.execute], in situ) on the printed answer or the failure message.
   [Test_exec.queries] ride along, a syntax and an evaluation error among
   them. *)
let prop_logical_equals_physical_fuzz =
  QCheck2.Test.make ~name:"random queries: logical = physical" ~count:200
    QCheck2.Gen.(oneof [ gen_query; oneofl Test_exec.queries ]) (fun query ->
      let doc = Xml.Doc.of_string Workloads.Figures.instance_a in
      let guard = Workloads.Figures.example_guard in
      let store = Store.Shredded.shred doc in
      let physical = Test_exec.physical_answer store guard query in
      let values_agree =
        match
          Guarded.Guarded_query.run_on_store ~enforce:false store
            { Guarded.Guarded_query.guard; query }
        with
        | outcome ->
            let lg = Guarded.Logical.create ~enforce:false store ~guard in
            Xquery.Value.to_string outcome.Guarded.Guarded_query.result
            = Xquery.Value.to_string (Guarded.Logical.query lg query)
        | exception Guarded.Guarded_query.Query_failed _ -> Result.is_error physical
      in
      values_agree && Test_exec.exec_answer store guard query = physical)

(* --- saved stores survive arbitrary corruption without crashing --- *)

let prop_store_load_total =
  QCheck2.Test.make ~name:"corrupted store files never crash load" ~count:150
    QCheck2.Gen.(triple Gen.gen_doc (int_range 0 10_000) (int_range 0 255))
    (fun (doc, pos, byte) ->
      let store = Store.Shredded.shred doc in
      let path = Filename.temp_file "xmorph-fuzz" ".store" in
      Store.Shredded.save store path;
      let data =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let mutated =
        let b = Bytes.of_string data in
        if Bytes.length b > 0 then
          Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        Bytes.to_string b
      in
      let oc = open_out_bin path in
      output_string oc mutated;
      close_out oc;
      let ok =
        match Store.Shredded.load path with
        | _ -> true
        | exception Store.Codec.Corrupt _ -> true
        | exception (Invalid_argument _ | Failure _) ->
            (* Array size mismatches surface as these; acceptable refusals. *)
            true
        | exception _ -> false
      in
      Sys.remove path;
      ok)

(* --- random guards through the complete pipeline, on random docs --- *)

let prop_pipeline_total_random_docs =
  QCheck2.Test.make ~name:"pipeline total on random docs x paper guards"
    ~count:150
    QCheck2.Gen.(
      pair Gen.gen_doc
        (oneofl
           [
             "MORPH a [ b ]"; "MORPH name [ title ]"; "MUTATE (DROP a)";
             "MORPH item [*]"; "MORPH b [**]"; "TYPE-FILL MORPH a [ zz ]";
             "MUTATE b [ a ]"; "MORPH (RESTRICT a [ b ])";
           ]))
    (fun (doc, guard) ->
      match Interp.transform_doc ~enforce:false doc guard with
      | tree -> String.length (Xml.Printer.to_string (fst tree)) >= 0
      | exception Interp.Error _ -> true
      | exception Loss.Rejected _ -> true
      | exception _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_logical_equals_physical_fuzz;
    QCheck_alcotest.to_alcotest prop_store_load_total;
    QCheck_alcotest.to_alcotest prop_pipeline_total_random_docs;
  ]
