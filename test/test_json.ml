open Xmutil

let js = Json.to_string ~pretty:false

let test_scalars () =
  Alcotest.(check string) "null" "null" (js Json.Null);
  Alcotest.(check string) "true" "true" (js (Json.Bool true));
  Alcotest.(check string) "int" "42" (js (Json.Int 42));
  Alcotest.(check string) "neg" "-7" (js (Json.Int (-7)));
  Alcotest.(check string) "float int" "3" (js (Json.Float 3.0));
  Alcotest.(check string) "float" "3.5" (js (Json.Float 3.5));
  Alcotest.(check string) "string" {|"hi"|} (js (Json.String "hi"))

let test_escaping () =
  Alcotest.(check string) "quotes" {|"a\"b"|} (js (Json.String {|a"b|}));
  Alcotest.(check string) "backslash" {|"a\\b"|} (js (Json.String {|a\b|}));
  Alcotest.(check string) "newline" {|"a\nb"|} (js (Json.String "a\nb"));
  Alcotest.(check string) "control" "\"a\\u0001b\"" (js (Json.String "a\001b"))

let test_composite () =
  Alcotest.(check string) "empty list" "[]" (js (Json.List []));
  Alcotest.(check string) "empty obj" "{}" (js (Json.Obj []));
  Alcotest.(check string) "list" "[1,2]" (js (Json.List [ Json.Int 1; Json.Int 2 ]));
  Alcotest.(check string) "obj" {|{"a":1,"b":[true]}|}
    (js (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ]))

let test_pretty () =
  let v = Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ] in
  Alcotest.(check string) "pretty" "{\n  \"a\": [\n    1\n  ]\n}"
    (Json.to_string v)

let test_report_json_shape () =
  let doc = Xml.Doc.of_string Workloads.Figures.instance_c in
  let store = Store.Shredded.shred doc in
  let compiled =
    Xmorph.Interp.compile ~enforce:false (Store.Shredded.guide store)
      Workloads.Figures.widening_guard
  in
  let s = Json.to_string (Xmorph.Report.loss_to_json compiled.Xmorph.Interp.loss) in
  Alcotest.(check bool) "classification present" true
    (Tutil.contains s {|"classification": "widening"|});
  Alcotest.(check bool) "violations listed" true (Tutil.contains s {|"additive"|});
  let m = Xmorph.Quantify.measure store compiled.Xmorph.Interp.shape in
  let q = Json.to_string (Xmorph.Quantify.to_json m) in
  Alcotest.(check bool) "measured json" true (Tutil.contains q {|"reversible": false|})

let test_parse_scalars () =
  Alcotest.(check string) "null" "null" (js (Json.of_string "null"));
  Alcotest.(check string) "bools" "[true,false]"
    (js (Json.of_string " [ true , false ] "));
  Alcotest.(check string) "ints" "[42,-7,0]" (js (Json.of_string "[42,-7,0]"));
  Alcotest.(check string) "floats" "[3.5,0.25,200]"
    (js (Json.of_string "[3.5,2.5e-1,2e2]"));
  Alcotest.(check string) "string escapes" {|["a\"b\\c\nd"]|}
    (js (Json.of_string {|["a\"b\\c\nd"]|}));
  Alcotest.(check string) "unicode escape" "\"A\""
    (js (Json.of_string {|"\u0041"|}))

let test_parse_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]);
        ("s", Json.String "x\"y\nz\\");
        ("o", Json.Obj [ ("b", Json.Bool false) ]);
        ("empty", Json.List []);
      ]
  in
  Alcotest.(check string) "compact roundtrip" (js v)
    (js (Json.of_string (js v)));
  Alcotest.(check string) "pretty roundtrip" (js v)
    (js (Json.of_string (Json.to_string v)))

let test_parse_errors () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed input %S" s
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "1 2"; "nan" ]

(* The writer against the one it replaced ([Json_oracle]): random values,
   compact and pretty, print the same bytes.  Strings are weighted towards
   the bytes the escaper rewrites, and floats towards the edges of the
   integral branch (negative zero, 1e15) and the ones [%g] prints. *)
let gen_string =
  QCheck2.Gen.(
    let piece =
      frequency
        [ (3, oneofl [ "\""; "\\"; "\n"; "\r"; "\t" ]);
          (3, map (String.make 1) (char_range '\000' '\031'));
          (4, map (String.make 1) (char_range ' ' '~'));
          (1, string_size ~gen:(char_range 'a' 'z') (int_range 1 40));
          (1, oneofl [ "\x7f"; "\xc3\xa9"; "\xe2\x82\xac"; "\xff" ]) ]
    in
    map (String.concat "") (list_size (int_range 0 12) piece))

let gen_float =
  QCheck2.Gen.(
    frequency
      [ (3, oneofl [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; 1. -. 1e15; 1e16; nan; infinity;
                     neg_infinity; 0.5; -2.5; 1e-7; max_float; min_float ]);
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        (2, map Float.of_int int);
        (3, float) ])

let gen_json =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           let scalar =
             frequency
               [ (1, pure Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (2, map (fun i -> Json.Int i) int);
                 (3, map (fun f -> Json.Float f) gen_float);
                 (3, map (fun s -> Json.String s) gen_string) ]
           in
           if n = 0 then scalar
           else
             frequency
               [ (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_range 0 5) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 5) (pair gen_string (self (n - 1)))) ) ]))

let prop_writer_oracle =
  QCheck2.Test.make ~name:"writer = the replaced writer on random values" ~count:2000
    ~print:(fun v -> Json_oracle.to_string ~pretty:false v)
    gen_json
    (fun v ->
      List.for_all
        (fun pretty ->
          let want = Json_oracle.to_string ~pretty v and got = Json.to_string ~pretty v in
          want = got
          || QCheck2.Test.fail_reportf "pretty=%b: want %S, got %S" pretty want got)
        [ false; true ])


(* ---------- the codec's readers and files ---------- *)

let doc =
  Json.of_string
    {|{"i": 3, "f": 2.5, "s": "x", "l": [1, 2], "o": {"n": {"v": 7.0}}, "z": null}|}

let test_path_readers () =
  let opt_f = Alcotest.(option (float 0.)) and opt_i = Alcotest.(option int) in
  let opt_s = Alcotest.(option string) in
  Alcotest.(check opt_f) "number_at Int" (Some 3.) (Json.number_at doc [ "i" ]);
  Alcotest.(check opt_f) "number_at Float" (Some 2.5) (Json.number_at doc [ "f" ]);
  Alcotest.(check opt_f) "number_at String" None (Json.number_at doc [ "s" ]);
  Alcotest.(check opt_i) "int_at Int" (Some 3) (Json.int_at doc [ "i" ]);
  Alcotest.(check opt_i) "int_at Float truncates" (Some 2) (Json.int_at doc [ "f" ]);
  Alcotest.(check opt_i) "int_at String" None (Json.int_at doc [ "s" ]);
  Alcotest.(check opt_s) "string_at String" (Some "x") (Json.string_at doc [ "s" ]);
  Alcotest.(check opt_s) "string_at Int" None (Json.string_at doc [ "i" ]);
  Alcotest.(check int) "list_at List" 2 (List.length (Json.list_at doc [ "l" ]));
  Alcotest.(check int) "list_at Obj" 0 (List.length (Json.list_at doc [ "o" ]));
  Alcotest.(check opt_i) "nested path" (Some 7) (Json.int_at doc [ "o"; "n"; "v" ]);
  Alcotest.(check opt_i) "missing member" None (Json.int_at doc [ "nope" ]);
  Alcotest.(check opt_i) "missing nested member" None (Json.int_at doc [ "o"; "x"; "v" ]);
  Alcotest.(check opt_i) "through a non-object" None (Json.int_at doc [ "i"; "v" ]);
  Alcotest.(check opt_i) "null" None (Json.int_at doc [ "z" ]);
  Alcotest.(check opt_i) "empty path" (Some 4) (Json.int_at (Json.Int 4) []);
  Alcotest.(check int) "list_at on a non-object" 0 (List.length (Json.list_at (Json.Int 1) [ "l" ]))

let fails want f =
  match f () with
  | _ -> Alcotest.failf "expected Failure %S" want
  | exception Failure got -> Alcotest.(check string) want want got

let test_field_readers () =
  let f = Json.fields ~what:"doc" doc in
  Alcotest.(check int) "int_field Int" 3 (Json.int_field f "i");
  Alcotest.(check int) "int_field Float" 2 (Json.int_field f "f");
  Alcotest.(check (float 0.)) "float_field Float" 2.5 (Json.float_field f "f");
  Alcotest.(check (float 0.)) "float_field Int" 3. (Json.float_field f "i");
  Alcotest.(check string) "string_field" "x" (Json.string_field f "s");
  Alcotest.(check int) "list_field" 2 (List.length (Json.list_field f "l"));
  let n = Json.object_field (Json.object_field f "o") "n" in
  Alcotest.(check (float 0.)) "nested object_field" 7. (Json.float_field n "v");
  fails {|doc: missing field "x"|} (fun () -> Json.int_field f "x");
  fails {|doc: missing field "x"|} (fun () -> Json.string_field n "x");
  fails {|doc: field "s" is not a number|} (fun () -> Json.int_field f "s");
  fails {|doc: field "s" is not a number|} (fun () -> Json.float_field f "s");
  fails {|doc: field "i" is not a string|} (fun () -> Json.string_field f "i");
  fails {|doc: field "o" is not a list|} (fun () -> Json.list_field f "o");
  fails {|doc: field "l" is not an object|} (fun () -> Json.object_field f "l");
  fails {|doc: field "z" is not a number|} (fun () -> Json.int_field f "z");
  fails "doc: not a JSON object" (fun () -> Json.fields ~what:"doc" (Json.List []))

let with_temp_dir f =
  let dir = Filename.temp_file "xmorph_json" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_files () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "v.json" in
  Json.write_file path doc;
  Alcotest.(check string) "round trip" (js doc) (js (Json.read_file path));
  Alcotest.(check (list string)) "no .tmp left" [ "v.json" ]
    (Array.to_list (Sys.readdir dir));
  let text = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "pretty JSON and a newline" (Json.to_string doc ^ "\n") text;
  Json.write_file path (Json.Int 1);
  Alcotest.(check string) "replaces the file" "1" (js (Json.read_file path));
  let bad = Filename.concat dir "bad.json" in
  Out_channel.with_open_bin bad (fun oc -> output_string oc "{\"a\": }");
  (match Json.read_file bad with
  | _ -> Alcotest.fail "accepted a malformed file"
  | exception Json.Parse_error { pos; msg } ->
      Alcotest.(check string) "the one wording"
        "invalid JSON at byte 6: expected a JSON value"
        (Json.error_message ~pos ~msg));
  match Json.read_file (Filename.concat dir "missing.json") with
  | _ -> Alcotest.fail "read a missing file"
  | exception Sys_error _ -> ()

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "composites" `Quick test_composite;
    Alcotest.test_case "pretty printing" `Quick test_pretty;
    Alcotest.test_case "report serialization" `Quick test_report_json_shape;
    Alcotest.test_case "parse scalars" `Quick test_parse_scalars;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "path readers" `Quick test_path_readers;
    Alcotest.test_case "field readers and their failures" `Quick test_field_readers;
    Alcotest.test_case "write_file and read_file" `Quick test_files;
    QCheck_alcotest.to_alcotest prop_writer_oracle;
  ]
