(* The serve subsystem: Prometheus text exposition (golden), the minimal
   HTTP layer, the daemon end to end over a loopback socket, and the
   offline stats analyzer.  The end-to-end test pins the byte-identity
   contract: POST /query returns exactly what [xmorph run] prints. *)

let doc_xml =
  "<data>\n\
   <book><title>X</title><author><name>A</name></author><author><name>B</name></author><publisher><name>W</name></publisher></book>\n\
   <book><title>Y</title><author><name>A</name></author><publisher><name>V</name></publisher></book>\n\
   </data>"

let make_store () = Store.Shredded.shred (Xml.Doc.of_string doc_xml)

let contains body s =
  let n = String.length s and m = String.length body in
  let rec go i = i + n <= m && (String.sub body i n = s || go (i + 1)) in
  go 0

let paper_guard = "MORPH author [ name book [ title ] ]"

let widening_guard = "MORPH data [ author [ book ] ]"

(* ---------- Prometheus exposition ---------- *)

let test_prometheus_name () =
  Alcotest.(check string)
    "dots become underscores" "serve_query_seconds"
    (Xmobs.Metrics.prometheus_name "serve.query.seconds");
  Alcotest.(check string)
    "leading digit prefixed" "_9lives"
    (Xmobs.Metrics.prometheus_name "9lives");
  Alcotest.(check string)
    "colons survive" "a:b" (Xmobs.Metrics.prometheus_name "a:b")

let test_prometheus_escape () =
  Alcotest.(check string)
    "backslash, quote, newline" "a\\\"b\\\\c\\nd"
    (Xmobs.Metrics.prometheus_escape_label "a\"b\\c\nd");
  Alcotest.(check string)
    "plain text untouched" "store.xml"
    (Xmobs.Metrics.prometheus_escape_label "store.xml")

let test_prometheus_golden () =
  let r = Xmobs.Metrics.create () in
  Xmobs.Metrics.counter_add (Xmobs.Metrics.counter ~r "req.count") 3;
  Xmobs.Metrics.gauge_set (Xmobs.Metrics.gauge ~r "up") 2.5;
  let lat = Xmobs.Metrics.histogram ~r "lat" in
  Xmobs.Metrics.hist_add lat 1.0;
  Xmobs.Metrics.hist_add lat 1.0;
  Xmobs.Metrics.hist_add lat 1.0;
  Xmobs.Metrics.hist_add lat 100.0;
  Xmobs.Metrics.set_help ~r "lat" "request latency";
  let expected =
    "# HELP req_count req count\n\
     # TYPE req_count counter\n\
     req_count 3\n\
     # HELP up up\n\
     # TYPE up gauge\n\
     up 2.5\n\
     # HELP lat request latency\n\
     # TYPE lat histogram\n\
     lat_bucket{le=\"1.04427378243\"} 3\n\
     lat_bucket{le=\"103.071381245\"} 4\n\
     lat_bucket{le=\"+Inf\"} 4\n\
     lat_sum 103\n\
     lat_count 4\n"
  in
  Alcotest.(check string)
    "golden exposition" expected
    (Xmobs.Metrics.to_prometheus ~r ())

(* Labeled families: escaping, sorted label names, bounded cardinality
   with the "_other" overflow series, and histogram series with [le]
   rendered after the series labels. *)
let test_prometheus_labeled_golden () =
  let r = Xmobs.Metrics.create () in
  Xmobs.Metrics.set_help ~r "req.total" "requests by route and status";
  Xmobs.Metrics.counter_add
    (Xmobs.Metrics.counter_labeled ~r "req.total"
       [ ("status", "200"); ("route", "/query") ])
    2;
  Xmobs.Metrics.counter_add
    (Xmobs.Metrics.counter_labeled ~r "req.total"
       [ ("route", "a\"b\\c\nd"); ("status", "400") ])
    1;
  let lh =
    Xmobs.Metrics.histogram_labeled ~r "q.seconds" [ ("outcome", "ok") ]
  in
  Xmobs.Metrics.hist_add lh 1.0;
  Xmobs.Metrics.hist_add lh 1.0;
  let expected =
    "# HELP req_total requests by route and status\n\
     # TYPE req_total counter\n\
     req_total{route=\"/query\",status=\"200\"} 2\n\
     req_total{route=\"a\\\"b\\\\c\\nd\",status=\"400\"} 1\n\
     # HELP q_seconds q seconds\n\
     # TYPE q_seconds histogram\n\
     q_seconds_bucket{outcome=\"ok\",le=\"1.04427378243\"} 2\n\
     q_seconds_bucket{outcome=\"ok\",le=\"+Inf\"} 2\n\
     q_seconds_sum{outcome=\"ok\"} 2\n\
     q_seconds_count{outcome=\"ok\"} 2\n"
  in
  Alcotest.(check string)
    "labeled golden exposition" expected
    (Xmobs.Metrics.to_prometheus ~r ())

let test_labeled_overflow () =
  let r = Xmobs.Metrics.create () in
  for i = 1 to 10 do
    Xmobs.Metrics.counter_add
      (Xmobs.Metrics.counter_labeled ~r ~max_series:3 "g"
         [ ("guard", Printf.sprintf "h%02d" i) ])
      1
  done;
  let series = Xmobs.Metrics.counter_series ~r "g" in
  Alcotest.(check int) "capped at max_series + overflow" 4 (List.length series);
  Alcotest.(check int)
    "overflow absorbs the excess" 7
    (Xmobs.Metrics.counter_value_labeled ~r "g" [ ("guard", "_other") ]);
  (* interning the same labels again returns the same series *)
  Xmobs.Metrics.counter_add
    (Xmobs.Metrics.counter_labeled ~r ~max_series:3 "g" [ ("guard", "h01") ])
    5;
  Alcotest.(check int)
    "existing series still reachable at cap" 6
    (Xmobs.Metrics.counter_value_labeled ~r "g" [ ("guard", "h01") ])

let test_prometheus_info () =
  let r = Xmobs.Metrics.create () in
  let text =
    Xmobs.Metrics.to_prometheus ~r
      ~info:[ ("version", "2.0"); ("stores", "a\"b\\c") ]
      ()
  in
  Alcotest.(check string)
    "info gauge with escaped labels"
    "# HELP xmorph_info build and deployment info\n\
     # TYPE xmorph_info gauge\n\
     xmorph_info{version=\"2.0\",stores=\"a\\\"b\\\\c\"} 1\n"
    text

(* +Inf invariant on a busier histogram: cumulative counts are monotone
   and the +Inf bucket equals _count. *)
let test_prometheus_inf_invariant () =
  let r = Xmobs.Metrics.create () in
  let h = Xmobs.Metrics.histogram ~r "h" in
  for i = 1 to 500 do
    Xmobs.Metrics.hist_add h (float_of_int i /. 7.0)
  done;
  let lines = String.split_on_char '\n' (Xmobs.Metrics.to_prometheus ~r ()) in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 9 && String.sub l 0 9 = "h_bucket{" then
          match String.rindex_opt l ' ' with
          | Some i ->
              int_of_string_opt
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "has buckets" true (List.length bucket_counts > 2);
  let monotone =
    let rec go = function
      | a :: (b :: _ as rest) -> a <= b && go rest
      | _ -> true
    in
    go bucket_counts
  in
  Alcotest.(check bool) "cumulative counts monotone" true monotone;
  let count =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "h_count"; n ] -> int_of_string_opt n
        | _ -> None)
      lines
  in
  Alcotest.(check (option int)) "+Inf bucket equals _count" (Some 500) count;
  Alcotest.(check (option int))
    "last bucket equals _count"
    (Some 500)
    (match List.rev bucket_counts with [] -> None | last :: _ -> Some last)

(* ---------- HTTP parsing ---------- *)

let test_percent_decode () =
  Alcotest.(check string)
    "escapes and plus" "a b/c d"
    (Xmserve.Http.percent_decode "a+b%2Fc%20d");
  Alcotest.(check string)
    "malformed escape passes through" "100%"
    (Xmserve.Http.percent_decode "100%")

let test_parse_query () =
  Alcotest.(check (list (pair string string)))
    "pairs decoded in order"
    [ ("doc", "a.xml"); ("query", "//name"); ("flag", "") ]
    (Xmserve.Http.parse_query "doc=a.xml&query=%2F%2Fname&flag")

let test_parse_url () =
  (match Xmserve.Http.parse_url "http://127.0.0.1:8080/stats?x=1" with
  | Ok (host, port, target) ->
      Alcotest.(check string) "host" "127.0.0.1" host;
      Alcotest.(check int) "port" 8080 port;
      Alcotest.(check string) "target" "/stats?x=1" target
  | Error m -> Alcotest.fail m);
  (match Xmserve.Http.parse_url "http://localhost/" with
  | Ok (_, port, target) ->
      Alcotest.(check int) "default port" 80 port;
      Alcotest.(check string) "root target" "/" target
  | Error _ -> Alcotest.fail "default port URL rejected");
  Alcotest.(check bool)
    "https rejected" true
    (Result.is_error (Xmserve.Http.parse_url "https://x/"))

(* ---------- request parsing over a real fd ---------- *)

(* Feed raw bytes to [read_request] through a socketpair, with EOF after
   the payload (shutdown, not close, so the fd is never double-closed). *)
let feed_request ?max_header bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let n = String.length bytes in
      if n > 0 then ignore (Unix.write_substring a bytes 0 n);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Xmserve.Http.read_request ?max_header b)

let expect_parse_error ?max_header ~needle bytes =
  match feed_request ?max_header bytes with
  | _ -> Alcotest.failf "expected a parse error mentioning %S" needle
  | exception Xmserve.Http.Parse_error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" m needle)
        true (contains m needle)

let test_read_request_well_formed () =
  match
    feed_request "POST /query?doc=a.xml HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
  with
  | Some req ->
      Alcotest.(check string) "method" "POST" req.Xmserve.Http.meth;
      Alcotest.(check string) "path" "/query" req.Xmserve.Http.path;
      Alcotest.(check string) "body" "hello" req.Xmserve.Http.body
  | None -> Alcotest.fail "request not parsed"

let test_read_request_edge_cases () =
  (* a connection closed before any bytes is a clean None, not an error *)
  (match feed_request "" with
  | None -> ()
  | Some _ -> Alcotest.fail "request parsed out of nothing");
  expect_parse_error ~max_header:256 ~needle:"header too large"
    ("GET / HTTP/1.1\r\nx-junk: " ^ String.make 512 'a' ^ "\r\n");
  expect_parse_error ~needle:"malformed Content-Length"
    "POST /query HTTP/1.1\r\ncontent-length: over9000\r\n\r\n";
  expect_parse_error ~needle:"malformed Content-Length"
    "POST /query HTTP/1.1\r\ncontent-length: -3\r\n\r\n";
  expect_parse_error ~needle:"unexpected EOF in body"
    "POST /query HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly this much";
  expect_parse_error ~needle:"unexpected EOF in header" "GET / HTTP/1.1\r\nhost: x";
  expect_parse_error ~needle:"malformed header line"
    "GET / HTTP/1.1\r\nno colon here\r\n\r\n";
  expect_parse_error ~needle:"body too large"
    "POST /query HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"

(* A piece-by-piece writer: [s] goes out in the pieces between [cuts]
   (offsets into [s]), with a short pause between pieces so that they
   tend to arrive in reads of their own. *)
let write_pieces fd s cuts =
  let n = String.length s in
  let ends = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) @ [ n ] in
  ignore
    (List.fold_left
       (fun off stop ->
         if off > 0 then Thread.delay 0.0002;
         let rec go off = if off < stop then go (off + Unix.write_substring fd s off (stop - off)) in
         go off;
         stop)
       0 ends)

(* Offsets to cut a [head]-byte head and a [body]-byte body at: some in
   the head or just past it, some anywhere. *)
let gen_cuts ~head ~body =
  QCheck2.Gen.(
    let* near = list_size (int_range 0 6) (int_range 0 (head + 8)) in
    let+ far = list_size (int_range 0 6) (int_range 0 (head + body)) in
    near @ far)

(* [len] bytes of body, seeded, with CRs, LFs and NULs among them: a head
   search that strayed into the body would find a terminator there. *)
let gen_body len =
  QCheck2.Gen.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      String.init len (fun _ -> "\r\n\000ab<x>".[Random.State.int st 8]))
    QCheck2.Gen.int

let gen_token = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let gen_value = QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 40))

(* ---------- request parsing split across reads ---------- *)

(* Feed [bytes] to [read_request] through a socketpair from a writer
   thread, in the pieces between [cuts], then EOF; what the parse read
   past (after a failure) is drained so the writer can finish. *)
let feed_pieces bytes cuts =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        write_pieces a bytes cuts;
        Unix.shutdown a Unix.SHUTDOWN_SEND)
      ()
  in
  let parsed =
    match Xmserve.Http.read_request b with
    | Some r ->
        Ok
          (Some
             Xmserve.Http.(r.meth, r.target, r.path, r.query, r.headers, r.body))
    | None -> Ok None
    | exception Xmserve.Http.Parse_error m -> Error m
  in
  let chunk = Bytes.create 65536 in
  while Unix.read b chunk 0 65536 > 0 do () done;
  Thread.join writer;
  Unix.close a;
  Unix.close b;
  parsed

(* A request: a request line, headers (a long one past the 2 KiB first
   read at times), a Content-Length body, CRLF or bare LF line ends; now
   and then with a malformed header, a short body or a cut-off head. *)
let gen_request =
  QCheck2.Gen.(
    let* meth = oneofl [ "GET"; "POST"; "put" ] in
    let* path = gen_token in
    let* qs = oneofl [ ""; "?doc=a.xml"; "?q=%2F%2Fx&force=1" ] in
    let* eol = oneofl [ "\r\n"; "\n" ] in
    let* headers = list_size (int_range 0 6) (pair gen_token gen_value) in
    let* pad = frequency [ (3, pure 0); (1, int_range 1000 5000) ] in
    let* blen = frequency [ (2, pure 0); (3, int_range 1 200); (2, int_range 1000 20000) ] in
    let* body = gen_body blen in
    let* fault = frequency [ (6, pure `None); (1, pure `Short); (1, pure `No_colon); (1, pure `Cut) ] in
    let lines =
      (Printf.sprintf "%s /%s%s HTTP/1.1" meth path qs
       :: List.map (fun (k, v) -> k ^ ": " ^ v) headers)
      @ (if pad > 0 then [ "x-pad: " ^ String.make pad 'p' ] else [])
      @ [ Printf.sprintf "Content-Length: %d" (if fault = `Short then blen + 10 else blen) ]
      @ if fault = `No_colon then [ "no colon" ] else []
    in
    let head = String.concat eol lines ^ eol ^ eol in
    let req = if fault = `Cut then String.sub head 0 (String.length head - 2) else head ^ body in
    let+ cuts = gen_cuts ~head:(String.length head) ~body:(String.length body) in
    (req, cuts))

let prop_read_request_split =
  QCheck2.Test.make ~name:"read_request parses a split request as a whole one" ~count:150
    ~print:(fun (req, cuts) ->
      Printf.sprintf "%S cut at %s" req (String.concat "," (List.map string_of_int cuts)))
    (QCheck2.Gen.no_shrink gen_request)
    (fun (req, cuts) -> feed_pieces req [] = feed_pieces req cuts)

(* ---------- the client ---------- *)

(* A loopback listener that answers [conns] connections in turn: it reads
   each request, then hands the socket to [respond] and closes it. *)
let with_listener ~conns respond f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let server =
    Thread.create
      (fun () ->
        for _ = 1 to conns do
          let fd, _ = Unix.accept sock in
          ignore (Xmserve.Http.read_request fd);
          respond fd;
          Unix.close fd
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close sock)
    (fun () -> f (Printf.sprintf "http://127.0.0.1:%d/" port))

(* A response: a status line, headers (a long one past 4 KiB at times),
   with or without a Content-Length, CRLF or bare LF lines and either
   terminator, and a body of up to 300 KiB. *)
let gen_response =
  QCheck2.Gen.(
    let* status = int_range 100 599 in
    let* reason = oneofl [ "OK"; "Not Found"; "" ] in
    let* eol = oneofl [ "\r\n"; "\n" ] in
    let* term = oneofl [ "\r\n\r\n"; "\n\n" ] in
    let* headers = list_size (int_range 0 6) (pair gen_token gen_value) in
    let* pad = frequency [ (3, pure 0); (2, int_range 1 1000); (1, int_range 4000 9000) ] in
    let* blen =
      frequency
        [ (2, pure 0); (3, int_range 1 100); (3, int_range 100 8192);
          (2, int_range 8192 (300 * 1024)) ]
    in
    let* body = gen_body blen in
    let* cl = oneofl [ None; Some "Content-Length"; Some "content-length"; Some "CONTENT-LENGTH" ] in
    let* at = int_range 0 (List.length headers) in
    let fields =
      List.mapi (fun i (k, v) -> if i = at then [] else [ k ^ ": " ^ v ]) headers
      |> List.concat
    in
    let fields =
      (match cl with Some k -> [ Printf.sprintf "%s:  %d " k blen ] | None -> [])
      @ fields
      @ if pad > 0 then [ "x-pad: " ^ String.make pad 'p' ] else []
    in
    let head =
      String.concat eol (Printf.sprintf "HTTP/1.1 %d %s" status reason :: fields) ^ term
    in
    let+ cuts = gen_cuts ~head:(String.length head) ~body:blen in
    (head ^ body, cuts))

type fetched = (int * (string * string) list * string, string) result

(* The response [raw], written in pieces, as the client and as the
   client it replaced each read it. *)
let fetch_both raw cuts : fetched * fetched =
  with_listener ~conns:2 (fun fd -> write_pieces fd raw cuts) @@ fun url ->
  let oracle = Http_oracle.request_url ~timeout_s:10.0 ~meth:"GET" url in
  let client = Xmserve.Http.request_url ~timeout_s:10.0 ~meth:"GET" url in
  (oracle, client)

let prop_client_oracle =
  QCheck2.Test.make ~name:"the client reads what the replaced client read" ~count:120
    ~print:(fun (raw, cuts) ->
      Printf.sprintf "%S (%d bytes) cut at %s"
        (String.sub raw 0 (min 300 (String.length raw)))
        (String.length raw)
        (String.concat "," (List.map string_of_int cuts)))
    (QCheck2.Gen.no_shrink gen_response)
    (fun (raw, cuts) ->
      let oracle, client = fetch_both raw cuts in
      (match oracle with Ok _ -> () | Error m -> QCheck2.Test.fail_reportf "oracle: %s" m);
      oracle = client || QCheck2.Test.fail_report "the clients disagree")

let client_get url = Xmserve.Http.request_url ~timeout_s:10.0 ~meth:"GET" url

let test_client_fixed_cases () =
  (* A body shorter than its Content-Length is an error; the replaced
     client returned what it got. *)
  let short = "HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nonly this much" in
  let oracle, client = fetch_both short [] in
  Alcotest.(check (result string string))
    "the replaced client returned a short body" (Ok "only this much")
    (Result.map (fun (_, _, b) -> b) oracle);
  Alcotest.(check (result string string))
    "a short body is an error" (Error "unexpected EOF in body")
    (Result.map (fun (_, _, b) -> b) client);
  (* A head over 16 KiB, and a Content-Length no string can hold, are
     errors. *)
  let long = "HTTP/1.1 200 OK\r\nx-pad: " ^ String.make (20 * 1024) 'p' ^ "\r\n\r\nbody" in
  let huge = Printf.sprintf "HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\nbody" max_int in
  List.iter
    (fun (what, raw, want) ->
      with_listener ~conns:1 (fun fd -> write_pieces fd raw []) @@ fun url ->
      Alcotest.(check (result string string))
        what (Error want)
        (Result.map (fun (_, _, b) -> b) (client_get url)))
    [ ("a long head is an error", long, "header too large");
      ( "an oversized Content-Length is an error",
        huge,
        Printf.sprintf "Content-Length %d too large" max_int ) ]

(* The client reads on after the body until the server closes, so the
   server, which closes first, keeps the TIME_WAIT. *)
let test_client_waits_for_close () =
  let raw = "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello" in
  with_listener ~conns:1
    (fun fd ->
      write_pieces fd raw [];
      Thread.delay 0.2)
  @@ fun url ->
  let t0 = Unix.gettimeofday () in
  let r = client_get url in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check (result string string)) "body" (Ok "hello")
    (Result.map (fun (_, _, b) -> b) r);
  if waited < 0.19 then
    Alcotest.failf "the client returned %.3f s after the response, before the close" waited

(* The client allocates little beyond the body it returns: at most 1.5
   bytes per body byte for a 160 KiB body (6.83 for a 140 KB body when
   every read made a fresh 4 KiB chunk and the body was copied from a
   doubling buffer twice more; docs/PERFORMANCE.md). *)
let test_client_bytes_per_body_byte () =
  let len = 160 * 1024 in
  let raw = Printf.sprintf "HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s" len (String.make len 'b') in
  with_listener ~conns:2 (fun fd -> write_pieces fd raw []) @@ fun url ->
  ignore (client_get url);
  (* A minor collection inside the window added up to 63,000 minor words
     to the count, against the client's own 106, so none is left due. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let r = client_get url in
  let per = (Gc.allocated_bytes () -. a0) /. float_of_int len in
  Alcotest.(check (result int string)) "body" (Ok len)
    (Result.map (fun (_, _, b) -> String.length b) r);
  if per > 1.5 then
    Alcotest.failf "the client allocated %.2f bytes per body byte" per

(* ---------- the daemon, end to end ---------- *)

(* A started server over [store], stopped afterwards; [metrics], when
   given, is the registry it writes (its own otherwise). *)
let with_server ?(store = make_store ()) ?(workers = 2) ?slow_ms ?slow_log
    ?window ?slo_error_rate ?metrics f =
  let server =
    Xmserve.Server.create
      ~sinks:{ Xmobs.Obs.no_sinks with metrics }
      ~port:0 ~workers ?slow_ms ?slow_log ?window ?slo_error_rate
      ~stores:[ ("data.xml", store) ]
      ()
  in
  Xmserve.Server.start server;
  let base = Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port server) in
  Fun.protect
    ~finally:(fun () -> Xmserve.Server.stop server)
    (fun () -> f server base store)

let get ?body ?headers ~meth base target =
  match
    Xmserve.Http.request_url ?body ?headers ~timeout_s:10.0 ~meth
      (base ^ target)
  with
  | Ok r -> r
  | Error m -> Alcotest.fail ("request " ^ target ^ ": " ^ m)

let test_healthz () =
  with_server @@ fun _ base _store ->
  let status, _, body = get ~meth:"GET" base "/healthz" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check string) "ok body" "ok\n" body

let test_metrics_endpoint () =
  with_server @@ fun _ base _store ->
  ignore (get ~meth:"GET" base "/healthz");
  let status, headers, body = get ~meth:"GET" base "/metrics" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check (option string))
    "prometheus content type"
    (Some "text/plain; version=0.0.4; charset=utf-8")
    (List.assoc_opt "content-type" headers);
  let has s =
    let n = String.length s and m = String.length body in
    let rec go i = i + n <= m && (String.sub body i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "info line" true (has "xmorph_info{version=\"2.0\"");
  Alcotest.(check bool) "request counter" true
    (has "# TYPE xmorph_requests_total counter");
  Alcotest.(check bool) "latency histogram" true
    (has "# TYPE serve_request_seconds histogram")

let test_query_byte_identity () =
  with_server @@ fun _ base store ->
  let status, headers, body = get ~meth:"POST" ~body:paper_guard base "/query" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check (option string))
    "xml content type" (Some "application/xml")
    (List.assoc_opt "content-type" headers);
  let tree, _ = Xmorph.Interp.transform ~enforce:true store paper_guard in
  Alcotest.(check string)
    "bytes identical to xmorph run"
    (Xml.Printer.to_string_indented tree)
    body

let test_query_guarded_xquery () =
  with_server @@ fun _ base store ->
  let status, _, body =
    get ~meth:"POST" ~body:paper_guard base "/query?query=%2F%2Fname"
  in
  Alcotest.(check int) "200" 200 status;
  let outcome =
    Guarded.Guarded_query.run_on_store ~enforce:true store
      { Guarded.Guarded_query.guard = paper_guard; query = "//name" }
  in
  let expected =
    String.concat ""
      (List.map
         (fun t -> Xml.Printer.to_string t ^ "\n")
         outcome.Guarded.Guarded_query.result_xml)
  in
  Alcotest.(check string) "bytes identical to xmorph query" expected body

let test_query_errors () =
  with_server @@ fun _ base _store ->
  let status, _, _ = get ~meth:"POST" ~body:"MUTATE nosuch" base "/query" in
  Alcotest.(check int) "unknown label -> 400" 400 status;
  let status, _, body = get ~meth:"POST" ~body:widening_guard base "/query" in
  Alcotest.(check int) "enforcement rejection -> 422" 422 status;
  Alcotest.(check bool)
    "loss report in body" true
    (String.length body >= 15 && String.sub body 0 15 = "classification:");
  let status, _, _ =
    get ~meth:"POST" ~body:"MUTATE data" base "/query?doc=other.xml"
  in
  Alcotest.(check int) "unknown doc -> 404" 404 status;
  let status, _, _ = get ~meth:"POST" ~body:"   " base "/query" in
  Alcotest.(check int) "empty guard -> 400" 400 status;
  let status, _, _ = get ~meth:"GET" base "/nope" in
  Alcotest.(check int) "unknown path -> 404" 404 status;
  let status, _, _ = get ~meth:"PATCH" base "/healthz" in
  Alcotest.(check int) "unknown method -> 405" 405 status

let test_stats_endpoint () =
  with_server @@ fun _ base _store ->
  ignore (get ~meth:"POST" ~body:paper_guard base "/query");
  ignore (get ~meth:"POST" ~body:"MUTATE nosuch" base "/query");
  let status, headers, body = get ~meth:"GET" base "/stats" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check (option string))
    "json content type" (Some "application/json")
    (List.assoc_opt "content-type" headers);
  match Xmutil.Json.of_string body with
  | Xmutil.Json.Obj fields ->
      (match List.assoc_opt "queries" fields with
      | Some (Xmutil.Json.Obj queries) ->
          Alcotest.(check (option bool))
            "one ok query" (Some true)
            (Option.map
               (fun j -> j = Xmutil.Json.Int 1)
               (List.assoc_opt "ok" queries));
          Alcotest.(check (option bool))
            "one parse error" (Some true)
            (Option.map
               (fun j -> j = Xmutil.Json.Int 1)
               (List.assoc_opt "parse-error" queries))
      | _ -> Alcotest.fail "missing queries object");
      Alcotest.(check bool)
        "stores listed" true
        (List.mem_assoc "stores" fields)
  | _ -> Alcotest.fail "stats is not a JSON object"
  | exception Xmutil.Json.Parse_error _ -> Alcotest.fail "stats is invalid JSON"

let contains body s =
  let n = String.length s and m = String.length body in
  let rec go i = i + n <= m && (String.sub body i n = s || go (i + 1)) in
  go 0

(* Every route — monitoring endpoints included — lands in the labeled
   request family; executed queries land in the doc/outcome and guard
   families. *)
let test_labeled_request_metrics () =
  with_server @@ fun _ base _store ->
  ignore (get ~meth:"GET" base "/healthz");
  ignore (get ~meth:"GET" base "/stats");
  ignore (get ~meth:"GET" base "/debug/timeseries");
  ignore (get ~meth:"GET" base "/nope");
  ignore (get ~meth:"POST" ~body:paper_guard base "/query");
  ignore (get ~meth:"POST" ~body:"MUTATE nosuch" base "/query");
  (* First scrape records itself; the second scrape proves it. *)
  ignore (get ~meth:"GET" base "/metrics");
  let _, _, body = get ~meth:"GET" base "/metrics" in
  List.iter
    (fun series ->
      Alcotest.(check bool) (series ^ " exposed") true (contains body series))
    [
      "xmorph_requests_total{route=\"/healthz\",status=\"200\"} 1";
      "xmorph_requests_total{route=\"/stats\",status=\"200\"} 1";
      "xmorph_requests_total{route=\"/debug/timeseries\",status=\"200\"} 1";
      "xmorph_requests_total{route=\"other\",status=\"404\"} 1";
      "xmorph_requests_total{route=\"/query\",status=\"200\"} 1";
      "xmorph_requests_total{route=\"/query\",status=\"400\"} 1";
      "xmorph_requests_total{route=\"/metrics\",status=\"200\"} 1";
      "# TYPE xmorph_requests_total counter";
      "xmorph_query_seconds_count{doc=\"data.xml\",outcome=\"ok\"} 1";
      "xmorph_query_seconds_count{doc=\"data.xml\",outcome=\"parse-error\"} 1";
      "# TYPE xmorph_query_seconds histogram";
      "# TYPE xmorph_guard_seconds histogram";
    ]

let ts_num json path_parts =
  let rec go j = function
    | [] -> (
        match j with
        | Xmutil.Json.Int i -> Some (float_of_int i)
        | Xmutil.Json.Float f -> Some f
        | _ -> None)
    | name :: rest -> (
        match j with
        | Xmutil.Json.Obj fs -> (
            match List.assoc_opt name fs with
            | Some j' -> go j' rest
            | None -> None)
        | _ -> None)
  in
  go json path_parts

let test_timeseries_endpoint () =
  (* A one-second window so the decay is observable within a test run. *)
  with_server ~window:1 @@ fun _ base _store ->
  for _ = 1 to 5 do
    ignore (get ~meth:"POST" ~body:paper_guard base "/query")
  done;
  let status, headers, body = get ~meth:"GET" base "/debug/timeseries" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check (option string))
    "json content type" (Some "application/json")
    (List.assoc_opt "content-type" headers);
  let j = Xmutil.Json.of_string body in
  Alcotest.(check (option (float 0.0))) "window reported" (Some 1.0)
    (ts_num j [ "window_s" ]);
  (match ts_num j [ "series"; "queries"; "count" ] with
  | Some n when n >= 1.0 -> ()
  | v ->
      Alcotest.failf "burst not visible in the window: count %s"
        (match v with Some f -> string_of_float f | None -> "missing"));
  (match ts_num j [ "series"; "queries"; "rate" ] with
  | Some r when r > 0.0 -> ()
  | _ -> Alcotest.fail "burst rate should be nonzero");
  (match ts_num j [ "series"; "requests"; "rate" ] with
  | Some r when r > 0.0 -> ()
  | _ -> Alcotest.fail "request rate should be nonzero");
  (* Queries carry windowed percentiles. *)
  (match ts_num j [ "series"; "queries"; "p95" ] with
  | Some p when p >= 0.0 -> ()
  | _ -> Alcotest.fail "windowed p95 missing");
  (* Let the window slide past the burst: the rate returns to zero (the
     lifetime total does not). *)
  Unix.sleepf 1.2;
  let _, _, body = get ~meth:"GET" base "/debug/timeseries" in
  let j = Xmutil.Json.of_string body in
  Alcotest.(check (option (float 0.0))) "burst decayed" (Some 0.0)
    (ts_num j [ "series"; "queries"; "count" ]);
  match ts_num j [ "series"; "queries"; "lifetime" ] with
  | Some n when n >= 5.0 -> ()
  | _ -> Alcotest.fail "lifetime total must survive the window"

(* As [--window 2 --slo-error-rate 0.2] would configure it: the SLO
   rules need 5 queries in the window, and a 2 s window keeps a burst that
   straddles a second boundary whole. *)
let test_slo_flip_and_recovery () =
  with_server ~window:2 ~slo_error_rate:0.2 @@ fun _ base _store ->
  let status, _, body = get ~meth:"GET" base "/healthz" in
  Alcotest.(check int) "healthy before traffic" 200 status;
  Alcotest.(check string) "ok body" "ok\n" body;
  for _ = 1 to 5 do
    ignore (get ~meth:"POST" ~body:"MUTATE nosuch" base "/query")
  done;
  let status, _, body = get ~meth:"GET" base "/healthz" in
  Alcotest.(check int) "breach flips healthz to 503" 503 status;
  Alcotest.(check bool) "body says degraded" true (contains body "degraded");
  Alcotest.(check bool) "body names the objective" true
    (contains body "error-rate");
  Alcotest.(check bool) "body quantifies the breach" true
    (contains body "> 0.20");
  (* /debug/timeseries mirrors the verdict. *)
  let _, _, ts_body = get ~meth:"GET" base "/debug/timeseries" in
  Alcotest.(check bool) "timeseries reports degraded" true
    (contains ts_body "\"status\": \"degraded\"");
  (* The window slides clean and the recovery hold expires: poll until
     health returns (bounded — a daemon stuck degraded must fail). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await () =
    let status, _, _ = get ~meth:"GET" base "/healthz" in
    if status = 200 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "healthz still %d after the breach cleared" status
    else begin
      Unix.sleepf 0.2;
      await ()
    end
  in
  await ()

(* ---------- one record per request ---------- *)

let series_count r name labels =
  List.fold_left
    (fun n (ls, (c, _)) -> if ls = labels then n + c else n)
    0
    (Xmobs.Metrics.histogram_series ~r name)

(* One executed /query moves each per-request sink by exactly one, and
   the unlabeled series that only restated a labeled family are gone
   from the exposition. *)
let test_one_query_one_record () =
  let r = Xmobs.Metrics.create () in
  with_server ~metrics:r @@ fun _ base _store ->
  let windows () =
    let _, _, body = get ~meth:"GET" base "/debug/timeseries" in
    let j = Xmutil.Json.of_string body in
    let num series =
      match ts_num j [ "series"; series; "lifetime" ] with
      | Some n -> int_of_float n
      | None -> Alcotest.failf "series.%s.lifetime missing" series
    in
    (num "queries", num "requests")
  in
  let requests () =
    Xmobs.Metrics.counter_value_labeled ~r "xmorph_requests_total"
      [ ("route", "/query"); ("status", "200") ]
  in
  let guard = [ ("guard", Xmobs.Qlog.hash_text paper_guard) ] in
  let query = [ ("doc", "data.xml"); ("outcome", "ok") ] in
  let q0, r0 = windows () in
  let req0 = requests () in
  let qs0 = series_count r "xmorph_query_seconds" query in
  let gs0 = series_count r "xmorph_guard_seconds" guard in
  let status, _, _ = get ~meth:"POST" ~body:paper_guard base "/query" in
  Alcotest.(check int) "200" 200 status;
  let q1, r1 = windows () in
  Alcotest.(check int) "xmorph_requests_total{route=/query}" 1
    (requests () - req0);
  Alcotest.(check int) "xmorph_query_seconds count" 1
    (series_count r "xmorph_query_seconds" query - qs0);
  Alcotest.(check int) "xmorph_guard_seconds count" 1
    (series_count r "xmorph_guard_seconds" guard - gs0);
  Alcotest.(check int) "queries window lifetime" 1 (q1 - q0);
  (* the query, and the first /debug/timeseries read, recorded once its
     response was built *)
  Alcotest.(check int) "requests window lifetime" 2 (r1 - r0);
  let _, _, body = get ~meth:"GET" base "/metrics" in
  let lines = String.split_on_char '\n' body in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " not exposed") false
        (List.exists (String.starts_with ~prefix) lines))
    [ "serve_requests"; "# TYPE serve_requests "; "serve_responses_";
      "# TYPE serve_responses_"; "serve_query_seconds";
      "# TYPE serve_query_seconds "; "serve_updates"; "# TYPE serve_updates " ]

(* A two-store daemon is sent each kind of /query outcome; /stats counts
   exactly what it was sent. *)
let test_stats_count_what_was_sent () =
  let server =
    Xmserve.Server.create ~port:0 ~workers:2
      ~stores:[ ("a.xml", make_store ()); ("b.xml", make_store ()) ]
      ()
  in
  Xmserve.Server.start server;
  let base = Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port server) in
  Fun.protect ~finally:(fun () -> Xmserve.Server.stop server) @@ fun () ->
  List.iter
    (fun (target, body, want) ->
      let status, _, _ = get ~meth:"POST" ~body base target in
      Alcotest.(check int) (target ^ " " ^ body) want status)
    [ ("/query", paper_guard, 200);
      ("/query?doc=b.xml", paper_guard, 200);
      ("/query", "MUTATE nosuch", 400);
      ("/query?doc=b.xml", widening_guard, 422);
      ("/query?doc=c.xml", paper_guard, 404);
      ("/query", "  ", 400) ];
  let _, _, body = get ~meth:"GET" base "/stats" in
  let j = Xmutil.Json.of_string body in
  Alcotest.(check (option (float 0.0))) "requests" (Some 6.0)
    (ts_num j [ "requests" ]);
  List.iter
    (fun (outcome, n) ->
      Alcotest.(check (option (float 0.0))) ("queries." ^ outcome)
        (Some n) (ts_num j [ "queries"; outcome ]))
    [ ("ok", 2.0); ("parse-error", 1.0); ("type-mismatch", 1.0);
      ("internal", 0.0) ]

(* Binding a port already in use fails without leaking the socket. *)
let test_failed_create_closes_socket () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close holder) @@ fun () ->
  Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen holder 1;
  let port =
    match Unix.getsockname holder with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let before = open_fds () in
  for _ = 1 to 20 do
    match
      Xmserve.Server.create ~port ~stores:[ ("data.xml", make_store ()) ] ()
    with
    | _ -> Alcotest.fail "bound a port already in use"
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ())

(* A server stopped before it ran closes its listening socket. *)
let test_stop_unrun_closes_socket () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 10 do
    Xmserve.Server.stop
      (Xmserve.Server.create ~port:0 ~stores:[ ("data.xml", make_store ()) ] ())
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ())

(* Two servers in one process hold their own sinks: each writes bundles
   to its own incident directory with its own context, and its alerts
   land in its own recorder; stopping one leaves the other's evaluator
   enabled and ticking. *)
let test_two_servers_own_sinks () =
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_two_%s_%d" name (Unix.getpid ()))
  in
  let bundles dir =
    List.filter
      (fun n -> Filename.check_suffix n ".json")
      (Array.to_list (Sys.readdir dir))
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  let rules =
    [ { Xmobs.Alerts.name = "errs";
        cond = Xmobs.Alerts.Err_rate { above = 0.5; window_s = 60 };
        for_s = 0.0; min_count = 1 } ]
  in
  let alerts =
    { Xmobs.Alerts.interval_s = 0.05; log = None; webhook = None;
      webhook_timeout_s = 0.05; webhook_retries = 0; rules }
  in
  let serve dir =
    let s =
      Xmserve.Server.create ~port:0 ~workers:1 ~incident_dir:dir ~alerts
        ~stores:[ ("data.xml", make_store ()) ]
        ()
    in
    Xmserve.Server.start s;
    (s, Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port s))
  in
  let dir_a = tmp "a" and dir_b = tmp "b" in
  let a, base_a = serve dir_a in
  let b, base_b = serve dir_b in
  Fun.protect
    ~finally:(fun () ->
      Xmserve.Server.stop a;
      Xmserve.Server.stop b;
      rm_rf dir_a;
      rm_rf dir_b)
  @@ fun () ->
  let bundle_port dir name =
    let ic = open_in_bin (Filename.concat dir name) in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    ts_num (Xmutil.Json.of_string text) [ "context"; "config"; "port" ]
  in
  List.iter
    (fun (s, base, dir) ->
      let status, _, _ =
        get ~meth:"POST" ~body:"drill" base "/debug/incident"
      in
      Alcotest.(check int) "manual bundle" 200 status;
      match bundles dir with
      | [ name ] ->
          Alcotest.(check (option (float 0.0)))
            "the bundle holds its own server's context"
            (Some (float_of_int (Xmserve.Server.port s)))
            (bundle_port dir name)
      | l -> Alcotest.failf "%s holds %d bundles, not 1" dir (List.length l))
    [ (a, base_a, dir_a); (b, base_b, dir_b) ];
  Xmserve.Server.stop a;
  let alerts_state () =
    let _, _, body = get ~meth:"GET" base_b "/debug/alerts" in
    match Xmutil.Json.of_string body with
    | Xmutil.Json.Obj fs ->
        (List.assoc_opt "enabled" fs, ts_num (Xmutil.Json.Obj fs) [ "firing" ])
    | _ -> Alcotest.fail "/debug/alerts is not an object"
  in
  Alcotest.(check bool) "the other evaluator is still enabled" true
    (fst (alerts_state ()) = Some (Xmutil.Json.Bool true));
  (* Failing queries after the stop: only a ticking evaluator fires. *)
  for _ = 1 to 3 do
    ignore (get ~meth:"POST" ~body:"MUTATE nosuch" base_b "/query")
  done;
  let alert_bundles () =
    List.filter (fun n -> Filename.check_suffix n "-alert.json") (bundles dir_b)
  in
  let rec await n =
    (snd (alerts_state ()) = Some 1.0 && alert_bundles () <> [])
    || (n > 0 && (Thread.delay 0.05; await (n - 1)))
  in
  Alcotest.(check bool)
    "the other evaluator ticks, fires, and bundles in its own directory" true
    (await 100);
  Alcotest.(check int) "the stopped server's directory is untouched" 1
    (List.length (bundles dir_a))

(* ---------- per-request telemetry ---------- *)

let hex32 s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let trace_id_of headers =
  match List.assoc_opt "x-xmorph-trace-id" headers with
  | Some id -> id
  | None -> Alcotest.fail "no x-xmorph-trace-id response header"

(* A request in the server's ring, by trace id. *)
let find_request server tid =
  List.find_opt
    (fun c -> String.equal c.Xmobs.Ctx.c_trace_id tid)
    (Xmserve.Server.requests server)

(* Two servers in one process keep their own registries and request
   rings: queries sent to A alone leave B's /stats, /metrics and
   /debug/requests holding B's own requests only, and each server
   exports its own worker budget. *)
let test_two_servers_own_registries () =
  let serve workers =
    let s =
      Xmserve.Server.create ~port:0 ~workers
        ~stores:[ ("data.xml", make_store ()) ]
        ()
    in
    Xmserve.Server.start s;
    (s, Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port s))
  in
  let a, base_a = serve 1 in
  let b, base_b = serve 2 in
  Fun.protect
    ~finally:(fun () ->
      Xmserve.Server.stop a;
      Xmserve.Server.stop b)
  @@ fun () ->
  let a_ids =
    List.init 3 (fun _ ->
        let status, headers, _ =
          get ~meth:"POST" ~body:paper_guard base_a "/query"
        in
        Alcotest.(check int) "A answers" 200 status;
        trace_id_of headers)
  in
  ignore (get ~meth:"GET" base_b "/healthz");
  let _, _, body = get ~meth:"GET" base_b "/stats" in
  let j = Xmutil.Json.of_string body in
  Alcotest.(check (option (float 0.0))) "B's requests are its own" (Some 1.0)
    (ts_num j [ "requests" ]);
  Alcotest.(check (option (float 0.0))) "B ran no query" (Some 0.0)
    (ts_num j [ "queries"; "ok" ]);
  let metrics base =
    let _, _, body = get ~meth:"GET" base "/metrics" in
    String.split_on_char '\n' body
  in
  let lines_b = metrics base_b in
  Alcotest.(check bool) "no query series on B" false
    (List.exists (String.starts_with ~prefix:"xmorph_query_seconds") lines_b);
  Alcotest.(check bool) "B's worker budget" true
    (List.mem "serve_workers 2" lines_b);
  Alcotest.(check bool) "A's worker budget" true
    (List.mem "serve_workers 1" (metrics base_a));
  let _, _, body = get ~meth:"GET" base_b "/debug/requests" in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " not in B's ring") false (contains body id);
      let status, _, _ = get ~meth:"GET" base_b ("/debug/trace/" ^ id) in
      Alcotest.(check int) "A's trace is not B's" 404 status)
    a_ids

(* A server with four workers and a request ring of [debug_ring] 3, and
   a [query] that posts one guard and returns its trace id. *)
let with_ring_server f =
  let server =
    Xmserve.Server.create ~port:0 ~workers:4 ~debug_ring:3
      ~stores:[ ("data.xml", make_store ()) ]
      ()
  in
  Xmserve.Server.start server;
  let base = Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port server) in
  Fun.protect ~finally:(fun () -> Xmserve.Server.stop server) @@ fun () ->
  let query () =
    let _, headers, _ = get ~meth:"POST" ~body:paper_guard base "/query" in
    trace_id_of headers
  in
  f server base query

(* The request ring is the server's, bounded by [debug_ring]: the oldest
   request is evicted, the newest kept. *)
let test_request_ring_bounded () =
  with_ring_server @@ fun server base query ->
  let first = query () in
  let later = List.init 3 (fun _ -> query ()) in
  let status, _, _ = get ~meth:"GET" base ("/debug/trace/" ^ first) in
  Alcotest.(check int) "the oldest request is evicted" 404 status;
  Alcotest.(check (list string)) "the newest kept, newest first"
    (List.rev later)
    (List.map
       (fun c -> c.Xmobs.Ctx.c_trace_id)
       (Xmserve.Server.requests server))

(* Requests finished by concurrent workers leave at most [debug_ring]
   whole records in the ring, and [/debug/requests] lists exactly those. *)
let test_request_ring_concurrent () =
  with_ring_server @@ fun server base query ->
  let clients =
    List.init 4 (fun _ ->
        Thread.create (fun () -> for _ = 1 to 5 do ignore (query ()) done) ())
  in
  List.iter Thread.join clients;
  let ring = Xmserve.Server.requests server in
  Alcotest.(check int) "bounded under concurrent workers" 3 (List.length ring);
  List.iter
    (fun (c : Xmobs.Ctx.finished) ->
      Alcotest.(check bool) "each record is whole" true
        (c.Xmobs.Ctx.c_span_count = List.length c.Xmobs.Ctx.c_entries
        && c.Xmobs.Ctx.c_entries <> []
        && c.Xmobs.Ctx.c_qlog <> None))
    ring;
  let _, _, body = get ~meth:"GET" base "/debug/requests" in
  match Xmutil.Json.of_string body with
  | Xmutil.Json.Obj fs -> (
      match List.assoc_opt "requests" fs with
      | Some (Xmutil.Json.List l) ->
          Alcotest.(check int) "/debug/requests lists the ring" 3
            (List.length l)
      | _ -> Alcotest.fail "no requests list")
  | _ -> Alcotest.fail "/debug/requests is not an object"

let test_traceparent_propagation () =
  with_server @@ fun _ base _store ->
  (* No header: a fresh, valid trace id is minted and echoed both ways. *)
  let _, headers, _ = get ~meth:"POST" ~body:paper_guard base "/query" in
  let tid = trace_id_of headers in
  Alcotest.(check bool) "fresh id is 32 lowercase hex" true (hex32 tid);
  (match List.assoc_opt "traceparent" headers with
  | Some tp -> (
      match Xmobs.Ctx.parse_traceparent tp with
      | Some (t, _) -> Alcotest.(check string) "traceparent matches id" tid t
      | None -> Alcotest.fail "response traceparent does not parse")
  | None -> Alcotest.fail "no traceparent response header");
  (* A well-formed upstream traceparent is honored. *)
  let upstream = "4bf92f3577b34da6a3ce929d0e0e4736" in
  let _, headers, _ =
    get ~meth:"POST" ~body:paper_guard
      ~headers:[ ("traceparent", "00-" ^ upstream ^ "-00f067aa0ba902b7-01") ]
      base "/query"
  in
  Alcotest.(check string)
    "upstream trace id honored" upstream (trace_id_of headers);
  (* Malformed values never fail the request; a fresh id is minted. *)
  List.iter
    (fun bad ->
      let status, headers, _ =
        get ~meth:"POST" ~body:paper_guard
          ~headers:[ ("traceparent", bad) ]
          base "/query"
      in
      Alcotest.(check int) (Printf.sprintf "%S still 200" bad) 200 status;
      let tid = trace_id_of headers in
      Alcotest.(check bool)
        (Printf.sprintf "%S -> fresh valid id" bad)
        true
        (hex32 tid && tid <> upstream))
    [ "garbage";
      "00-zzzz-yyyy-01";
      "00-" ^ String.make 32 '0' ^ "-00f067aa0ba902b7-01" ]

let test_debug_endpoints () =
  with_server @@ fun _ base _store ->
  ignore (get ~meth:"POST" ~body:paper_guard base "/query");
  ignore (get ~meth:"POST" ~body:"MUTATE nosuch" base "/query");
  let status, headers, body = get ~meth:"GET" base "/debug/requests" in
  Alcotest.(check int) "200" 200 status;
  Alcotest.(check (option string))
    "json content type" (Some "application/json")
    (List.assoc_opt "content-type" headers);
  let reqs =
    match Xmutil.Json.of_string body with
    | Xmutil.Json.Obj fields -> (
        match List.assoc_opt "requests" fields with
        | Some (Xmutil.Json.List reqs) -> reqs
        | _ -> Alcotest.fail "missing requests list")
    | _ -> Alcotest.fail "/debug/requests is not a JSON object"
    | exception Xmutil.Json.Parse_error _ ->
        Alcotest.fail "/debug/requests is invalid JSON"
  in
  Alcotest.(check int) "both queries listed" 2 (List.length reqs);
  let field name = function
    | Xmutil.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  (* Newest first: the parse error, then the successful query. *)
  (match reqs with
  | [ newest; oldest ] ->
      Alcotest.(check (option bool))
        "newest is the parse error" (Some true)
        (Option.map
           (fun j -> j = Xmutil.Json.String "parse-error")
           (field "outcome" newest));
      Alcotest.(check (option bool))
        "parse error carries status 400" (Some true)
        (Option.map (fun j -> j = Xmutil.Json.Int 400) (field "status" newest));
      Alcotest.(check (option bool))
        "oldest is ok" (Some true)
        (Option.map (fun j -> j = Xmutil.Json.String "ok") (field "outcome" oldest))
  | _ -> Alcotest.fail "expected exactly two summaries");
  let ok_tid =
    List.find_map
      (fun r ->
        if field "outcome" r = Some (Xmutil.Json.String "ok") then
          match field "trace_id" r with
          | Some (Xmutil.Json.String id) -> Some id
          | _ -> None
        else None)
      reqs
  in
  let tid = match ok_tid with Some id -> id | None -> Alcotest.fail "no ok entry" in
  let status, _, body = get ~meth:"GET" base ("/debug/trace/" ^ tid) in
  Alcotest.(check int) "trace retrievable" 200 status;
  (match Xmutil.Json.of_string body with
  | Xmutil.Json.Obj fields ->
      Alcotest.(check (option bool))
        "trace_id echoed" (Some true)
        (Option.map
           (fun j -> j = Xmutil.Json.String tid)
           (List.assoc_opt "trace_id" fields));
      (match List.assoc_opt "trace" fields with
      | Some (Xmutil.Json.Obj trace) -> (
          match List.assoc_opt "traceEvents" trace with
          | Some (Xmutil.Json.List evs) ->
              Alcotest.(check bool)
                "spans recorded" true
                (List.length evs > 0)
          | _ -> Alcotest.fail "traceEvents missing")
      | _ -> Alcotest.fail "trace missing")
  | _ -> Alcotest.fail "/debug/trace is not a JSON object"
  | exception Xmutil.Json.Parse_error _ ->
      Alcotest.fail "/debug/trace is invalid JSON");
  let status, _, _ = get ~meth:"GET" base "/debug/trace/deadbeef" in
  Alcotest.(check int) "unknown trace id -> 404" 404 status

let test_slow_capture () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_slowlog_%d" (Unix.getpid ()))
  in
  with_server ~slow_ms:0.0 ~slow_log:dir @@ fun server base _store ->
  let _, headers, _ = get ~meth:"POST" ~body:paper_guard base "/query" in
  let tid = trace_id_of headers in
  (* The capture runs before the response returns, so the profile is
     already attached to the ring entry... *)
  (match find_request server tid with
  | Some c ->
      Alcotest.(check bool)
        "profile attached to the ring entry" true
        (c.Xmobs.Ctx.c_profile <> None)
  | None -> Alcotest.fail "request missing from the trace ring");
  (* ...visible through /debug/trace... *)
  let status, _, body = get ~meth:"GET" base ("/debug/trace/" ^ tid) in
  Alcotest.(check int) "200" 200 status;
  (match Xmutil.Json.of_string body with
  | Xmutil.Json.Obj fields ->
      Alcotest.(check bool)
        "profile in trace JSON" true
        (List.mem_assoc "profile" fields)
  | _ -> Alcotest.fail "trace is not a JSON object");
  (* ...and written as a --slow-log artifact that parses. *)
  let path = Filename.concat dir (tid ^ ".json") in
  Alcotest.(check bool) "slow-log artifact exists" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  (match Xmutil.Json.of_string text with
  | Xmutil.Json.Obj _ -> ()
  | _ -> Alcotest.fail "slow-log artifact is not a JSON object"
  | exception Xmutil.Json.Parse_error _ ->
      Alcotest.fail "slow-log artifact is invalid JSON");
  Sys.remove path;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* A slow-query capture re-executes the request to profile it, but the
   request's render is counted once: after one captured POST /query,
   render_elements on /metrics is the response's element count. *)
let test_slow_capture_counts_once () =
  with_server ~slow_ms:0.0 @@ fun _ base _store ->
  let status, _, body = get ~meth:"POST" ~body:paper_guard base "/query" in
  Alcotest.(check int) "200" 200 status;
  let rec count = function
    | Xml.Tree.Text _ -> 0
    | Xml.Tree.Element { attrs; children; _ } ->
        List.fold_left (fun n c -> n + count c) (1 + List.length attrs) children
  in
  let elements = count (Xml.Parser.parse body) in
  Alcotest.(check bool) "the response has elements" true (elements > 0);
  let _, _, metrics = get ~meth:"GET" base "/metrics" in
  let prefix = "render_elements " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' metrics)
  with
  | Some line ->
      let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
      Alcotest.(check int) "render_elements" elements (int_of_string (String.trim v))
  | None -> Alcotest.fail "render_elements not exposed"

(* Run [f] while an interval timer makes a running server worker yield
   every half millisecond, renders included.  The calling thread, and
   the client threads [f] starts, block the signal, so only the workers
   started before take it (their socket calls retry on EINTR). *)
let with_yield_timer f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Thread.yield ())) in
  let mask = Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  let every s = { Unix.it_interval = s; it_value = s } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0005));
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0));
      ignore (Thread.sigmask Unix.SIG_SETMASK mask);
      Sys.set_signal Sys.sigalrm old)

(* A client thread that takes a half-millisecond interval timer's signal
   loses no request: a signal that interrupts connect(2) leaves the kernel
   connecting, and the client waits the connection out.  Every other
   thread, the server's workers included, blocks the signal. *)
let test_client_survives_signals () =
  let every s = { Unix.it_interval = s; it_value = s } in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle ignore) in
  let mask = Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0));
      ignore (Thread.sigmask Unix.SIG_SETMASK mask);
      Sys.set_signal Sys.sigalrm old)
  @@ fun () ->
  with_server @@ fun _ base _store ->
  let outcomes = ref [] in
  let client =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigalrm ]);
        outcomes :=
          List.init 200 (fun _ ->
              match
                Xmserve.Http.request_url ~timeout_s:10.0 ~meth:"GET" (base ^ "/healthz")
              with
              | Ok (status, _, _) -> string_of_int status
              | Error m -> m))
      ()
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0005));
  Thread.join client;
  Alcotest.(check (list string)) "every request answered" (List.init 200 (fun _ -> "200"))
    !outcomes

(* A capture's frames are its own request's even while another client
   loops on a different guard, every one of its requests captured too:
   one render, and only this guard's closest joins.  The document is
   big enough that executions outlast the HTTP round trips, and a timer
   yields the running thread every half millisecond, so the two clients'
   executions interleave while a capture's frame tree is live. *)
let test_slow_capture_exact_under_load () =
  let book i =
    Printf.sprintf
      "<book><title>T%d</title><author><name>A%d</name></author>\
       <publisher><name>P%d</name></publisher></book>"
      i i i
  in
  let store =
    Store.Shredded.shred
      (Xml.Doc.of_string
         ("<data>" ^ String.concat "" (List.init 2000 book) ^ "</data>"))
  in
  with_server ~store ~slow_ms:0.0 @@ fun server base _store ->
  with_yield_timer @@ fun () ->
  let stop = Atomic.make false and served = Atomic.make 0 in
  let other_guard = "MORPH publisher [ name ]" in
  let other =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          ignore (get ~meth:"POST" ~body:other_guard base "/query");
          Atomic.incr served
        done)
      ()
  in
  let tids =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join other)
      (fun () ->
        while Atomic.get served < 2 do Thread.yield () done;
        List.init 64 (fun _ ->
            let _, headers, _ =
              get ~meth:"POST" ~body:paper_guard base "/query"
            in
            trace_id_of headers))
  in
  (* Every captured profile in the ring, either client's, holds exactly
     one compile and one render, and only its own guard's joins. *)
  let check_profile (c : Xmobs.Ctx.finished) frames =
    let mine = c.Xmobs.Ctx.c_label = Xmobs.Qlog.hash_text other_guard in
    let calls path =
      match Xmobs.Frames.lookup frames path with
      | Some f -> f.Xmobs.Frames.calls
      | None -> 0
    in
    Alcotest.(check (list string))
      "roots" [ "compile"; "render" ]
      (List.map (fun (f : Xmobs.Frames.frame) -> f.name) frames);
    Alcotest.(check int) "compile calls=1" 1 (calls [ "compile" ]);
    Alcotest.(check int) "render calls=1" 1 (calls [ "render" ]);
    let joins =
      match Xmobs.Frames.lookup frames [ "render" ] with
      | Some render ->
          List.filter
            (fun (f : Xmobs.Frames.frame) ->
              String.starts_with ~prefix:"closest(" f.name)
            (Xmobs.Frames.ordered_children render)
      | None -> []
    in
    Alcotest.(check bool) "closest joins recorded" true (joins <> []);
    List.iter
      (fun (f : Xmobs.Frames.frame) ->
        Alcotest.(check bool) (f.name ^ " is this guard's") mine
          (contains f.name "publisher"))
      joins
  in
  List.iter
    (fun tid ->
      match find_request server tid with
      | Some { Xmobs.Ctx.c_profile = Some _; _ } -> ()
      | Some _ -> Alcotest.fail "no profile attached"
      | None -> Alcotest.fail "request missing from the trace ring")
    tids;
  List.iter
    (fun (c : Xmobs.Ctx.finished) ->
      Option.iter (check_profile c) c.Xmobs.Ctx.c_profile)
    (Xmserve.Server.requests server)

(* Two concurrent requests: disjoint trace ids and span trees, each
   retrievable by id, with per-request I/O deltas summing exactly to the
   store's global counters. *)
let test_concurrent_requests_disjoint () =
  with_server @@ fun server base store ->
  let io0 = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  let results = Array.make 2 None in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun i ->
            results.(i) <- Some (get ~meth:"POST" ~body:paper_guard base "/query"))
          i)
  in
  List.iter Thread.join threads;
  let tids =
    Array.to_list results
    |> List.map (function
         | Some (status, headers, _) ->
             Alcotest.(check int) "200" 200 status;
             trace_id_of headers
         | None -> Alcotest.fail "concurrent request failed")
  in
  let a, b =
    match tids with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two responses"
  in
  Alcotest.(check bool) "disjoint trace ids" true (a <> b);
  (* Each trace is retrievable and carries its own non-empty span tree. *)
  List.iter
    (fun tid ->
      let status, _, body = get ~meth:"GET" base ("/debug/trace/" ^ tid) in
      Alcotest.(check int) (tid ^ " retrievable") 200 status;
      match Xmutil.Json.of_string body with
      | Xmutil.Json.Obj fields -> (
          Alcotest.(check (option bool))
            "trace_id matches" (Some true)
            (Option.map
               (fun j -> j = Xmutil.Json.String tid)
               (List.assoc_opt "trace_id" fields));
          match List.assoc_opt "trace" fields with
          | Some (Xmutil.Json.Obj trace) -> (
              match List.assoc_opt "traceEvents" trace with
              | Some (Xmutil.Json.List evs) ->
                  Alcotest.(check bool) "own span tree" true
                    (List.length evs > 0)
              | _ -> Alcotest.fail "traceEvents missing")
          | _ -> Alcotest.fail "trace missing")
      | _ -> Alcotest.fail "trace is not a JSON object")
    tids;
  (* Per-request I/O sums exactly to the store's global delta (the two
     /query executions are the only charges in the window). *)
  let io1 = Store.Io_stats.snapshot (Store.Shredded.stats store) in
  let delta = Store.Io_stats.diff io1 io0 in
  let sum f =
    List.fold_left
      (fun acc tid ->
        match find_request server tid with
        | Some c -> acc + f c.Xmobs.Ctx.c_io
        | None -> Alcotest.fail "trace missing from ring")
      0 tids
  in
  Alcotest.(check int)
    "bytes read sum to the global delta" delta.Store.Io_stats.bytes_read
    (sum (fun io -> io.Xmobs.Ctx.bytes_read));
  Alcotest.(check int)
    "bytes written sum to the global delta" delta.Store.Io_stats.bytes_written
    (sum (fun io -> io.Xmobs.Ctx.bytes_written));
  Alcotest.(check int)
    "read ops sum" delta.Store.Io_stats.read_ops
    (sum (fun io -> io.Xmobs.Ctx.read_ops));
  Alcotest.(check int)
    "write ops sum" delta.Store.Io_stats.write_ops
    (sum (fun io -> io.Xmobs.Ctx.write_ops))

(* ---------- the worker pool ---------- *)

let port_of base = int_of_string (List.nth (String.split_on_char ':' base) 2)

(* A raw client socket whose every read and write times out after 5 s, so
   a wedged worker fails the test instead of hanging it. *)
let raw_connect ?rcvbuf base =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of base));
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Read to EOF; a timeout fails the test. *)
let read_all fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "read timed out"
  in
  go ()

let big_store books =
  let book i =
    Printf.sprintf
      "<book><title>T%d</title><author><name>A%d</name></author></book>" i i
  in
  Store.Shredded.shred
    (Xml.Doc.of_string
       ("<data>" ^ String.concat "" (List.init books book) ^ "</data>"))

(* One worker, and each connection in turn fails in its own way; the
   worker answers the next one all the same. *)
let test_worker_survives_failures () =
  with_server ~store:(big_store 3000) ~workers:1 @@ fun _ base _store ->
  let guard = "MUTATE data" in
  let request =
    Printf.sprintf "POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
      (String.length guard) guard
  in
  let status_of response =
    match String.split_on_char ' ' response with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.failf "no status line in %S" response
  in
  let fd = raw_connect base in
  send fd "garbage\r\n\r\n";
  Alcotest.(check int) "malformed request -> 400" 400 (status_of (read_all fd));
  Unix.close fd;
  Unix.close (raw_connect base);
  (* A small receive window keeps the body's write blocked until the
     client resets the connection. *)
  let fd = raw_connect ~rcvbuf:4096 base in
  send fd request;
  let head = Bytes.create 16 in
  Alcotest.(check bool) "response started" true (Unix.read fd head 0 16 > 0);
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd;
  let fd = raw_connect base in
  send fd request;
  let response = read_all fd in
  Unix.close fd;
  Alcotest.(check int) "a normal query still answers" 200 (status_of response);
  Alcotest.(check bool) "body larger than 64 KiB" true
    (String.length response > 64 * 1024)

(* [stop] returns while a client holds a connection open and sends
   nothing, and the client sees the connection closed. *)
let test_stop_with_idle_client () =
  let server =
    Xmserve.Server.create ~port:0 ~workers:1
      ~stores:[ ("data.xml", make_store ()) ]
      ()
  in
  Xmserve.Server.start server;
  let base = Printf.sprintf "http://127.0.0.1:%d" (Xmserve.Server.port server) in
  let idle = raw_connect base in
  Fun.protect
    ~finally:(fun () -> Unix.close idle)
    (fun () ->
      (* Let the one worker accept the idle connection. *)
      Thread.delay 0.1;
      let stopped = Atomic.make false in
      let stopper =
        Thread.create
          (fun () ->
            Xmserve.Server.stop server;
            Atomic.set stopped true)
          ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "stop returned within 5 s" true (Atomic.get stopped);
      Thread.join stopper;
      Alcotest.(check string) "idle connection closed" "" (read_all idle))

(* ---------- the stats analyzer ---------- *)

let mk_entry ~id ~wall ?(outcome = Xmobs.Qlog.Ok) ?(source = "serve")
    ?(cached = false) ?trace_id () =
  {
    Xmobs.Qlog.ts = 1754000000.0 +. float_of_int id;
    id;
    trace_id;
    source;
    doc = "data.xml";
    guard = "MORPH author [ name book [ title ] ]";
    guard_hash = Xmobs.Qlog.hash_text "g";
    query_hash = None;
    classification = Some "strongly-typed";
    outcome;
    error = None;
    wall_s = wall;
    eval_s = wall /. 2.0;
    render_s = wall /. 2.0;
    in_nodes = 10;
    out_nodes = 10;
    io =
      Some
        {
          Xmobs.Qlog.bytes_read = 8192;
          bytes_written = 0;
          blocks_read = 2;
          blocks_written = 0;
          read_ops = 4;
          write_ops = 0;
        };
    cached;
    generation = None;
  }

let test_analyze () =
  let entries =
    List.init 100 (fun i -> mk_entry ~id:i ~wall:(float_of_int (i + 1) /. 1000.) ())
    @ [ mk_entry ~id:100 ~wall:0.5 ~outcome:Xmobs.Qlog.Parse_error ~source:"run" () ]
  in
  let s = Xmserve.Stats.analyze ~top:3 ~log_path:"q.jsonl" ~malformed:1 entries in
  Alcotest.(check int) "total" 101 s.Xmserve.Stats.total;
  Alcotest.(check int) "malformed" 1 s.Xmserve.Stats.malformed;
  Alcotest.(check (option int))
    "ok count" (Some 100)
    (List.assoc_opt "ok" s.Xmserve.Stats.by_outcome);
  Alcotest.(check (option int))
    "parse-error count" (Some 1)
    (List.assoc_opt "parse-error" s.Xmserve.Stats.by_outcome);
  Alcotest.(check (option int))
    "by source" (Some 100)
    (List.assoc_opt "serve" s.Xmserve.Stats.by_source);
  Alcotest.(check bool)
    "error rate ~1%" true
    (Float.abs (s.Xmserve.Stats.error_rate -. (1.0 /. 101.0)) < 1e-9);
  (* p95 of 1..100ms (plus one 500ms outlier) should sit near 96ms; the
     log-scale buckets promise <5% relative error. *)
  let p95 = s.Xmserve.Stats.wall_ms.Xmserve.Stats.p95 in
  Alcotest.(check bool)
    (Printf.sprintf "p95 in bucket tolerance (got %.3f)" p95)
    true
    (p95 > 85.0 && p95 < 107.0);
  Alcotest.(check int) "blocks total" (2 * 101) s.Xmserve.Stats.blocks_total;
  (match s.Xmserve.Stats.slowest with
  | first :: _ ->
      Alcotest.(check int) "slowest first" 100 first.Xmobs.Qlog.id
  | [] -> Alcotest.fail "no slowest entries");
  Alcotest.(check int)
    "top bounds slowest" 3
    (List.length s.Xmserve.Stats.slowest)

let test_load_skips_malformed () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_stats_%d.jsonl" (Unix.getpid ()))
  in
  let oc = open_out_bin path in
  output_string oc (Xmobs.Qlog.entry_to_line (mk_entry ~id:0 ~wall:0.001 ()));
  output_string oc "\nnot json at all\n{\"truncated\": \n";
  output_string oc (Xmobs.Qlog.entry_to_line (mk_entry ~id:1 ~wall:0.002 ()));
  output_string oc "\n";
  close_out oc;
  let entries, malformed = Xmserve.Stats.load path in
  Sys.remove path;
  Alcotest.(check int) "two well-formed" 2 (List.length entries);
  Alcotest.(check int) "two malformed" 2 malformed

let test_load_merges_rotated () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_rot_%d.jsonl" (Unix.getpid ()))
  in
  let rotated = path ^ ".1" in
  let write p lines =
    let oc = open_out_bin p in
    List.iter
      (fun l ->
        output_string oc l;
        output_string oc "\n")
      lines;
    close_out oc
  in
  (* older generation holds ids 0 and 5, live file 2 and 6: the merge must
     interleave by timestamp, not concatenate *)
  write rotated
    [
      Xmobs.Qlog.entry_to_line (mk_entry ~id:0 ~wall:0.001 ());
      "garbage in the rotated file";
      Xmobs.Qlog.entry_to_line (mk_entry ~id:5 ~wall:0.002 ());
    ];
  write path
    [
      Xmobs.Qlog.entry_to_line (mk_entry ~id:2 ~wall:0.003 ());
      Xmobs.Qlog.entry_to_line (mk_entry ~id:6 ~wall:0.004 ());
    ];
  let entries, malformed = Xmserve.Stats.load path in
  Sys.remove path;
  Sys.remove rotated;
  Alcotest.(check (list int))
    "merged in timestamp order" [ 0; 2; 5; 6 ]
    (List.map (fun e -> e.Xmobs.Qlog.id) entries);
  Alcotest.(check int) "malformed summed across generations" 1 malformed

let test_cross_reference () =
  let entries =
    List.init 4 (fun i -> mk_entry ~id:i ~wall:0.010 ())
    @ [
        {
          (mk_entry ~id:9 ~wall:0.020 ()) with
          Xmobs.Qlog.guard = "MORPH book [ title ]";
          guard_hash = Xmobs.Qlog.hash_text "other";
        };
      ]
  in
  let db = Xmobs.Statdb.create () in
  Xmobs.Statdb.record db ~guard_hash:(Xmobs.Qlog.hash_text "g")
    [
      {
        Xmobs.Frames.name = "closest(a->b)";
        calls = 2;
        total_us = 100.0;
        child_us = 0.0;
        in_count = 4;
        out_count = 8;
        pairs = 8;
        blocks_read = 0;
        blocks_written = 0;
        children = [];
      };
    ];
  match Xmserve.Stats.cross_reference ~db entries with
  | [ busy; rare ] ->
      Alcotest.(check string)
        "most-queried guard first" (Xmobs.Qlog.hash_text "g")
        busy.Xmserve.Stats.g_hash;
      Alcotest.(check int) "query count" 4 busy.Xmserve.Stats.g_count;
      Alcotest.(check bool)
        "warehouse rows attached" true
        (busy.Xmserve.Stats.g_ops <> []);
      Alcotest.(check bool)
        "unknown guard has no history" true
        (rare.Xmserve.Stats.g_ops = []);
      let text = Xmserve.Stats.cross_reference_to_text [ busy; rare ] in
      Alcotest.(check bool)
        "text mentions warehouse" true
        (String.length text > 0
        && Xmutil.Json.to_string
             (Xmserve.Stats.cross_reference_to_json [ busy; rare ])
           <> "")
  | other ->
      Alcotest.failf "expected 2 guard groups, got %d" (List.length other)

let test_compare_baseline () =
  let fast =
    Xmserve.Stats.analyze ~log_path:"a"
      ~malformed:0
      (List.init 50 (fun i -> mk_entry ~id:i ~wall:0.010 ()))
  in
  let slow =
    Xmserve.Stats.analyze ~log_path:"b"
      ~malformed:0
      (List.init 50 (fun i -> mk_entry ~id:i ~wall:0.050 ()))
  in
  let baseline =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xmorph_baseline_%d.json" (Unix.getpid ()))
  in
  let oc = open_out_bin baseline in
  output_string oc (Xmutil.Json.to_string (Xmserve.Stats.to_json fast));
  close_out oc;
  (match Xmserve.Stats.compare_baseline ~baseline_path:baseline slow with
  | Ok c ->
      Alcotest.(check bool) "5x is a regression" true c.Xmserve.Stats.regression;
      Alcotest.(check bool) "ratio ~5" true
        (c.Xmserve.Stats.ratio > 3.0 && c.Xmserve.Stats.ratio < 7.0)
  | Error m -> Alcotest.fail m);
  (match Xmserve.Stats.compare_baseline ~baseline_path:baseline fast with
  | Ok c ->
      Alcotest.(check bool)
        "same run is not a regression" false c.Xmserve.Stats.regression
  | Error m -> Alcotest.fail m);
  Sys.remove baseline

let suite =
  [
    Alcotest.test_case "prometheus_name sanitizes" `Quick test_prometheus_name;
    Alcotest.test_case "prometheus label escaping" `Quick
      test_prometheus_escape;
    Alcotest.test_case "prometheus exposition golden text" `Quick
      test_prometheus_golden;
    Alcotest.test_case "prometheus labeled families golden text" `Quick
      test_prometheus_labeled_golden;
    Alcotest.test_case "labeled family cardinality overflow" `Quick
      test_labeled_overflow;
    Alcotest.test_case "prometheus info gauge golden text" `Quick
      test_prometheus_info;
    Alcotest.test_case "prometheus +Inf/count invariant" `Quick
      test_prometheus_inf_invariant;
    Alcotest.test_case "percent decoding" `Quick test_percent_decode;
    Alcotest.test_case "query string parsing" `Quick test_parse_query;
    Alcotest.test_case "url parsing" `Quick test_parse_url;
    Alcotest.test_case "read_request parses a well-formed request" `Quick
      test_read_request_well_formed;
    Alcotest.test_case "read_request edge cases fail cleanly" `Quick
      test_read_request_edge_cases;
    QCheck_alcotest.to_alcotest prop_read_request_split;
    QCheck_alcotest.to_alcotest prop_client_oracle;
    Alcotest.test_case "client: short body and long head are errors" `Quick
      test_client_fixed_cases;
    Alcotest.test_case "client: waits for the server to close" `Quick
      test_client_waits_for_close;
    Alcotest.test_case "client: at most 1.5 bytes per body byte" `Quick
      test_client_bytes_per_body_byte;
    Alcotest.test_case "GET /healthz" `Quick test_healthz;
    Alcotest.test_case "GET /metrics is prometheus text" `Quick
      test_metrics_endpoint;
    Alcotest.test_case "POST /query matches xmorph run bytes" `Quick
      test_query_byte_identity;
    Alcotest.test_case "POST /query?query= matches xmorph query bytes" `Quick
      test_query_guarded_xquery;
    Alcotest.test_case "error statuses: 400/404/405/422" `Quick
      test_query_errors;
    Alcotest.test_case "GET /stats JSON" `Quick test_stats_endpoint;
    Alcotest.test_case "labeled request metrics cover every route" `Quick
      test_labeled_request_metrics;
    Alcotest.test_case "GET /debug/timeseries: burst then decay" `Quick
      test_timeseries_endpoint;
    Alcotest.test_case "slo breach flips healthz, then recovers" `Quick
      test_slo_flip_and_recovery;
    Alcotest.test_case "one /query moves each per-request sink by one"
      `Quick test_one_query_one_record;
    Alcotest.test_case "stats count what a two-store daemon was sent"
      `Quick test_stats_count_what_was_sent;
    Alcotest.test_case "a failed create closes its socket" `Quick
      test_failed_create_closes_socket;
    Alcotest.test_case "stopping a server that never ran closes its socket"
      `Quick test_stop_unrun_closes_socket;
    Alcotest.test_case "two servers in one process keep their own sinks"
      `Quick test_two_servers_own_sinks;
    Alcotest.test_case "two servers keep their own registries and rings"
      `Quick test_two_servers_own_registries;
    Alcotest.test_case "the request ring is bounded by debug_ring" `Quick
      test_request_ring_bounded;
    Alcotest.test_case "concurrent workers keep the request ring bounded"
      `Quick test_request_ring_concurrent;
    Alcotest.test_case "traceparent propagation and fallback" `Quick
      test_traceparent_propagation;
    Alcotest.test_case "GET /debug/requests and /debug/trace/<id>" `Quick
      test_debug_endpoints;
    Alcotest.test_case "slow-query auto-capture attaches a profile" `Quick
      test_slow_capture;
    Alcotest.test_case "slow-query capture counts its render once" `Quick
      test_slow_capture_counts_once;
    Alcotest.test_case "slow-query capture is exact under concurrent load"
      `Quick test_slow_capture_exact_under_load;
    Alcotest.test_case "a client's requests survive signals" `Quick
      test_client_survives_signals;
    Alcotest.test_case "concurrent requests: disjoint traces, I/O sums"
      `Quick test_concurrent_requests_disjoint;
    Alcotest.test_case "a worker survives every failing connection" `Quick
      test_worker_survives_failures;
    Alcotest.test_case "stop returns with an idle client connected" `Quick
      test_stop_with_idle_client;
    Alcotest.test_case "stats analyzer aggregates" `Quick test_analyze;
    Alcotest.test_case "stats load merges rotated generations" `Quick
      test_load_merges_rotated;
    Alcotest.test_case "stats cross-references the warehouse" `Quick
      test_cross_reference;
    Alcotest.test_case "stats load skips malformed lines" `Quick
      test_load_skips_malformed;
    Alcotest.test_case "stats --compare regression verdict" `Quick
      test_compare_baseline;
  ]
