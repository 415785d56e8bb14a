(* Render output pinned over fixed seeds of the three generators.  For each
   guard — every Fig. 15 shape, the identity MUTATE, one guard each with
   ORDER-BY, RESTRICT, a value filter and a NEW node, and one whose parents
   share closest runs under a filter or ORDER-BY — the test pins
   a digest of the [Render.to_buffer] bytes, [Render.stats], the store's
   [Io_stats] charges, a digest of [Render.instances], and the profiler's
   in/out/pairs counts per [closest(...)] frame.  The values were recorded
   from the hash-table join plan that preceded the run-based one. *)

open Xmorph

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let compile store guard =
  (Interp.compile ~enforce:false (Store.Shredded.guide store) guard).Interp.shape

(* Bytes, stats and I/O charges of one render on a fresh store (caches
   charge their reads once per store). *)
let render_line doc guard =
  let store = Store.Shredded.shred doc in
  let shape = compile store guard in
  let buf = Buffer.create 4096 in
  let st = Render.to_buffer store shape buf in
  let io = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  Printf.sprintf "out=%s elems=%d bytes=%d read=%d/%d written=%d/%d"
    (hex (Buffer.contents buf)) st.Render.elements st.Render.bytes
    io.Store.Io_stats.bytes_read io.Store.Io_stats.read_ops
    io.Store.Io_stats.bytes_written io.Store.Io_stats.write_ops

let stream_bytes doc guard =
  let store = Store.Shredded.shred doc in
  let buf = Buffer.create 4096 in
  ignore (Render.stream store (compile store guard) (Buffer.add_string buf));
  Buffer.contents buf

let to_buffer_bytes doc guard =
  let store = Store.Shredded.shred doc in
  let buf = Buffer.create 4096 in
  ignore (Render.to_buffer store (compile store guard) buf);
  Buffer.contents buf

let instances_digest doc guard =
  let store = Store.Shredded.shred doc in
  let b = Buffer.create 4096 in
  List.iter
    (fun ((tn : Tshape.node), insts) ->
      Printf.bprintf b "%s:" tn.out_name;
      Array.iter
        (fun (i : Render.instance) ->
          Printf.bprintf b " %s/%d" (Xmutil.Dewey.to_string i.dewey) i.source)
        insts;
      Buffer.add_char b '\n')
    (Render.instances store (compile store guard));
  hex (Buffer.contents b)

(* The profiler's closest-join frames, nested as the profile nests them. *)
let profile_digest doc guard =
  let store = Store.Shredded.shred doc in
  let shape = compile store guard in
  let (), frames =
    Xmobs.Ctx.profiled (fun ctx ->
        ignore (Render.to_buffer ~ctx store shape (Buffer.create 4096)))
  in
  let b = Buffer.create 1024 in
  let rec walk depth (f : Xmobs.Frames.frame) =
    if String.starts_with ~prefix:"closest(" f.name then
      Printf.bprintf b "%d %s in=%d out=%d pairs=%d calls=%d\n" depth f.name
        f.in_count f.out_count f.pairs f.calls;
    List.iter (walk (depth + 1)) (Xmobs.Frames.ordered_children f)
  in
  List.iter (walk 0) frames;
  hex (Buffer.contents b)

let docs =
  [
    ("xmark", lazy (Workloads.Xmark.to_doc ~seed:5 ~factor:0.005 ()));
    ("dblp", lazy (Workloads.Dblp.to_doc ~seed:5 ~entries:300 ()));
    ("nasa", lazy (Workloads.Nasa.to_doc ~seed:5 ~datasets:30 ()));
  ]

let extra_guards = function
  | "xmark" ->
      [ "MUTATE site";
        "MORPH people [ person [ emailaddress city ] ORDER-BY city desc ]";
        {|MORPH (RESTRICT person [ gender = "female" ]) [ person.name city ]|};
        {|MORPH person [ person.name gender = "male" ]|};
        "MORPH people [ (NEW card) [ emailaddress city ] ]";
        "MORPH incategory [ name ORDER-BY name ]" ]
  | "dblp" ->
      [ "MUTATE dblp";
        "MORPH dblp [ article [ title year ] ORDER-BY year desc ]";
        {|MORPH (RESTRICT article [ year = "1984" ]) [ title article.author ]|};
        {|MORPH article [ title year = "1982" ]|};
        "MUTATE (NEW entry) [ article ]";
        {|MORPH article.author [ title year = "1984" ]|} ]
  | _ ->
      [ "MUTATE datasets";
        "MORPH dataset [ title identifier ] ORDER-BY title";
        {|MORPH (RESTRICT dataset [ field [ units = "Jy" ] ]) [ title altname ]|};
        {|MORPH dataset [ title units = "deg" ]|};
        "MORPH dataset [ (NEW head) [ title altname ] identifier ]";
        "MORPH keyword [ lastname ORDER-BY lastname desc ]" ]

let dataset = function
  | "xmark" -> Workloads.Shapes.Xmark_data
  | "dblp" -> Workloads.Shapes.Dblp_data
  | _ -> Workloads.Shapes.Nasa_data

let guards name =
  List.map (Workloads.Shapes.guard (dataset name)) Workloads.Shapes.kinds
  @ extra_guards name

let expected =
  [
    ("xmark MORPH site [ people [ person [ address [ city ] ] ] ]",
     "out=cfc9b2eb0bd4 elems=257 bytes=4129 read=8240/271 written=4129/1\
      \ inst=9b292b468517 prof=ba3983458ce5");
    ("xmark MORPH site [ people [ person [ person.name [ emailaddress [ address [ street [ city [ country [ zipcode ] ] ] ] ] ] ] ] ]",
     "out=1bbc47da423e elems=703 bytes=20445 read=30495/732 written=20445/1\
      \ inst=1e3b67a86846 prof=f05bfc396783");
    ("xmark MORPH person [ person.name emailaddress city ]",
     "out=9007079d87c4 elems=445 bytes=13761 read=19094/456 written=13761/1\
      \ inst=9b884a02b985 prof=9c39c72b143f");
    ("xmark MORPH person [ person.name emailaddress street city country zipcode age gender business education ]",
     "out=d339e02f67c1 elems=893 bytes=25380 read=38372/925 written=25380/1\
      \ inst=4cc68a523601 prof=efe3b5457f93");
    ("xmark MUTATE site",
     "out=50c2217f3faa elems=6363 bytes=158380 read=279280/7196 written=158380/1\
      \ inst=6decab63d905 prof=ac1dbbcdc7c8");
    ("xmark MORPH people [ person [ emailaddress city ] ORDER-BY city desc ]",
     "out=6d68967c899f elems=319 bytes=10535 read=15864/394 written=10535/1\
      \ inst=e6e28428d975 prof=3a2218369de6");
    ("xmark MORPH (RESTRICT person [ gender = \"female\" ]) [ person.name city ]",
     "out=f9fc4e68a235 elems=92 bytes=1915 read=8139/167 written=1915/1\
      \ inst=3ca29486d782 prof=72a44da578b4");
    ("xmark MORPH person [ person.name gender = \"male\" ]",
     "out=a1fb84148540 elems=281 bytes=5969 read=11584/353 written=5969/1\
      \ inst=dd23b87cf996 prof=9ec76e3b0238");
    ("xmark MORPH people [ (NEW card) [ emailaddress city ] ]",
     "out=3d4abe982470 elems=319 bytes=10027 read=11422/201 written=10027/1\
      \ inst=4629654e1688 prof=19b189f9daa5");
    ("dblp MORPH dblp [ article [ title [ year ] ] ]",
     "out=e33a8412304a elems=391 bytes=16109 read=20297/402 written=16109/1\
      \ inst=e0aa4fc4be7b prof=5beb300826d1");
    ("dblp MORPH dblp [ article [ article.author [ title [ journal [ volume [ year [ pages [ url [ ee ] ] ] ] ] ] ] ] ]",
     "out=289389f37f5d elems=2529 bytes=84718 read=100987/2558 written=84718/1\
      \ inst=cbb7aedbc258 prof=f04c82ec6b18");
    ("dblp MORPH article [ title year pages ]",
     "out=338509aa49fa elems=520 bytes=18931 read=24232/531 written=18931/1\
      \ inst=58c8f59f1ba9 prof=654a44813e26");
    ("dblp MORPH article [ article.author title journal volume year pages url ee @mdate @key ]",
     "out=2371634014ee elems=1554 bytes=47288 read=66668/1586 written=47288/1\
      \ inst=9221322649aa prof=cc0f624845de");
    ("dblp MUTATE dblp",
     "out=e96177d89771 elems=3312 bytes=102741 read=144019/3443 written=102741/1\
      \ inst=2f27ca024669 prof=99f3d8639461");
    ("dblp MORPH dblp [ article [ title year ] ORDER-BY year desc ]",
     "out=38a0e702bd2d elems=391 bytes=16109 read=22738/532 written=16109/1\
      \ inst=ab1cfb4ae254 prof=386e656aa1d7");
    ("dblp MORPH (RESTRICT article [ year = \"1984\" ]) [ title article.author ]",
     "out=6648c17d3dc9 elems=13 bytes=493 read=10404/154 written=493/1\
      \ inst=5356d06d02c0 prof=809f27b27427");
    ("dblp MORPH article [ title year = \"1982\" ]",
     "out=5002fafaa05a elems=263 bytes=13937 read=19843/401 written=13937/1\
      \ inst=472adcd3dfce prof=13dc6447b638");
    ("dblp MUTATE (NEW entry) [ article ]",
     "out=5b6b578685c5 elems=3442 bytes=104691 read=144514/3444 written=104691/1\
      \ inst=edad809200bf prof=e88fd4a75bd7");
    ("nasa MORPH datasets [ dataset [ title [ identifier ] ] ]",
     "out=2b233784d5e7 elems=91 bytes=2980 read=3549/102 written=2980/1\
      \ inst=54a06d6d6706 prof=8d2216491531");
    ("nasa MORPH datasets [ dataset [ title [ altname [ identifier [ tableHead [ field [ field.name [ units [ definition ] ] ] ] ] ] ] ] ]",
     "out=3db1c1b338c4 elems=623 bytes=21991 read=29701/652 written=21991/1\
      \ inst=b3f85538d1dc prof=9709f6649ff9");
    ("nasa MORPH dataset [ title altname identifier ]",
     "out=eb24b1bdfdaa elems=120 bytes=3769 read=4487/131 written=3769/1\
      \ inst=674a4a72323f prof=02802ffd641a");
    ("nasa MORPH dataset [ title altname identifier @subject keyword lastname volume units para abstract ]",
     "out=68dee305753d elems=584 bytes=38020 read=44932/616 written=38020/1\
      \ inst=c2e5cf189b9e prof=6a4b542efdb6");
    ("nasa MUTATE datasets",
     "out=abf661f8d19e elems=2101 bytes=81294 read=109124/2220 written=81294/1\
      \ inst=23957fc0313f prof=3a15e521f866");
    ("nasa MORPH dataset [ title identifier ] ORDER-BY title",
     "out=d5606b7f6644 elems=90 bytes=2959 read=4718/128 written=2959/1\
      \ inst=adca0b11c12b prof=d224a3722aa6");
    ("nasa MORPH (RESTRICT dataset [ field [ units = \"Jy\" ] ]) [ title altname ]",
     "out=74db3caff5fc elems=54 bytes=1599 read=7040/152 written=1599/1\
      \ inst=0223462268e9 prof=f1de1a48abfc");
    ("nasa MORPH dataset [ title units = \"deg\" ]",
     "out=975ab3e133a9 elems=81 bytes=2230 read=6673/207 written=2230/1\
      \ inst=34655ac8e107 prof=dfbe6c07973a");
    ("nasa MORPH dataset [ (NEW head) [ title altname ] identifier ]",
     "out=b3421fd33740 elems=150 bytes=4159 read=4608/132 written=4159/1\
      \ inst=11b5b8032422 prof=0fd7b9274954");
    ("xmark MORPH incategory [ name ORDER-BY name ]",
     "out=b22eec22af35 elems=412 bytes=10587 read=19988/648 written=10587/1\
      \ inst=0bc020d0685b prof=691435c73cf2");
    ("dblp MORPH article.author [ title year = \"1984\" ]",
     "out=de651df653ab elems=649 bytes=37643 read=49031/978 written=37643/1\
      \ inst=e1943dfecee2 prof=7d039ef0b749");
    ("nasa MORPH keyword [ lastname ORDER-BY lastname desc ]",
     "out=38649f68256a elems=418 bytes=12903 read=23232/722 written=12903/1\
      \ inst=bbe8ffe93191 prof=250028d23c41");
  ]

let test_pinned name () =
  let doc = Lazy.force (List.assoc name docs) in
  List.iter
    (fun guard ->
      let key = name ^ " " ^ guard in
      let want =
        match List.assoc_opt key expected with
        | Some w -> w
        | None -> Alcotest.failf "no pinned line for %s" key
      in
      let got =
        Printf.sprintf "%s inst=%s prof=%s" (render_line doc guard)
          (instances_digest doc guard) (profile_digest doc guard)
      in
      Alcotest.(check string) key want got;
      Alcotest.(check string) (key ^ ": stream = to_buffer")
        (to_buffer_bytes doc guard) (stream_bytes doc guard))
    (guards name)

let suite =
  List.map
    (fun (name, _) ->
      Alcotest.test_case (name ^ " render pinned") `Quick
        (test_pinned name))
    docs
