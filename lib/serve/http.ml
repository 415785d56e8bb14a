(* Minimal HTTP/1.1 over Unix sockets: exactly the subset the serve
   daemon and its smoke tests need.  Requests are read with a growing
   buffer until the blank line, then a Content-Length body; responses are
   written with Content-Length and Connection: close.  No chunked
   encoding, no keep-alive, no TLS — by design. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let status_reason = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let response ?(content_type = "text/plain; charset=utf-8") ?(headers = [])
    status body =
  { status; headers = ("content-type", content_type) :: headers; body }

let header (req : request) name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
        match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode kv, "")
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
      ( percent_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1))
      )

(* ---------- socket I/O ---------- *)

(* One write(2) per step, so EINTR means nothing was written (a signal
   handler ran before any byte went out) and the step is retried;
   [Unix.write_substring] loops itself and would lose the count of what
   it wrote before an EINTR. *)
let rec write_all fd s off len =
  if len > 0 then
    match Unix.single_write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let read_some fd buf =
  let chunk = Bytes.create 4096 in
  match Unix.read fd chunk 0 4096 with
  | 0 -> false
  | n ->
      Buffer.add_subbytes buf chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Find "\r\n\r\n" at or after [from] in the [n] bytes [get] reads;
   tolerate bare "\n\n" from hand-typed clients. *)
let header_end get n from =
  let rec go i =
    if i + 3 < n && get i = '\r' && get (i + 1) = '\n' && get (i + 2) = '\r'
       && get (i + 3) = '\n'
    then Some (i, 4)
    else if i + 1 < n && get i = '\n' && get (i + 1) = '\n' then Some (i, 2)
    else if i + 1 < n then go (i + 1)
    else None
  in
  go from

let find_header_end s = header_end (String.get s) (String.length s) 0

let trim = String.trim

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> fail "empty request"
  | req_line :: header_lines ->
      let req_line = trim req_line in
      let meth, target =
        match String.split_on_char ' ' req_line with
        | meth :: target :: _version -> (String.uppercase_ascii meth, target)
        | _ -> fail "malformed request line %S" req_line
      in
      let headers =
        List.filter_map
          (fun line ->
            let line = trim line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | None -> fail "malformed header line %S" line
              | Some i ->
                  Some
                    ( String.lowercase_ascii (trim (String.sub line 0 i)),
                      trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    ))
          header_lines
      in
      (meth, target, headers)

(* The server's read path: one 4 KiB chunk per connection, and the search
   for the header end resumes where the previous one stopped (less the
   three bytes a terminator split across reads may have left behind). *)
let read_request ?(max_header = 16 * 1024) ?(max_body = 4 * 1024 * 1024) fd =
  let chunk = Bytes.create 4096 in
  let buf = Buffer.create 1024 in
  let read () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  in
  let rec fill_header from =
    let n = Buffer.length buf in
    match header_end (Buffer.nth buf) n from with
    | Some cut -> Some cut
    | None ->
        if n > max_header then fail "header too large"
        else if read () then fill_header (max 0 (n - 3))
        else if n = 0 then None
        else fail "unexpected EOF in header"
  in
  match fill_header 0 with
  | None -> None
  | Some (head_end, sep_len) ->
      let head = Buffer.sub buf 0 head_end in
      let meth, target, headers = parse_head head in
      let content_length =
        match List.assoc_opt "content-length" headers with
        | None -> 0
        | Some v -> (
            match int_of_string_opt (trim v) with
            | Some n when n >= 0 -> n
            | _ -> fail "malformed Content-Length %S" v)
      in
      if content_length > max_body then fail "body too large";
      let body_start = head_end + sep_len in
      let rec fill_body () =
        if Buffer.length buf - body_start < content_length then
          if read () then fill_body () else fail "unexpected EOF in body"
      in
      fill_body ();
      let body = Buffer.sub buf body_start content_length in
      let path, query = split_target target in
      Some { meth; target; path; query; headers; body }

(* The status line and headers go out in one write and the body in a
   second, straight from [r.body]: no buffer holds a copy of it.  Accepted
   sockets set TCP_NODELAY, so the body's last segment is not held back
   behind the unacknowledged header segment. *)
let write_response fd (r : response) =
  let b = Buffer.create 256 in
  Printf.bprintf b "HTTP/1.1 %d %s\r\n" r.status (status_reason r.status);
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) r.headers;
  Printf.bprintf b "content-length: %d\r\nconnection: close\r\n\r\n"
    (String.length r.body);
  let head = Buffer.contents b in
  try
    write_all fd head 0 (String.length head);
    write_all fd r.body 0 (String.length r.body)
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* ---------- client ---------- *)

let parse_url url =
  let prefix = "http://" in
  let plen = String.length prefix in
  if String.length url < plen || String.sub url 0 plen <> prefix then
    Error (Printf.sprintf "unsupported URL %S (only http:// is supported)" url)
  else
    let rest = String.sub url plen (String.length url - plen) in
    let authority, target =
      match String.index_opt rest '/' with
      | None -> (rest, "/")
      | Some i ->
          (String.sub rest 0 i, String.sub rest i (String.length rest - i))
    in
    match String.index_opt authority ':' with
    | None -> Ok (authority, 80, target)
    | Some i -> (
        let host = String.sub authority 0 i in
        let port =
          String.sub authority (i + 1) (String.length authority - i - 1)
        in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (host, p, target)
        | _ -> Error (Printf.sprintf "bad port in URL %S" url))

let parse_status_line line =
  match String.split_on_char ' ' (trim line) with
  | _http :: code :: _ -> (
      match int_of_string_opt code with
      | Some c -> c
      | None -> fail "malformed status line %S" line)
  | _ -> fail "malformed status line %S" line

(* A signal that interrupts [connect(2)] does not stop the kernel
   connecting: wait, within [timeout_s], for the socket to become writable,
   then read the connection's outcome. *)
let connect fd addr ~timeout_s =
  match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec wait () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""));
        match Unix.select [] [ fd ] [] left with
        | _, [], _ -> wait ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ();
      match Unix.getsockopt_error fd with
      | None -> ()
      | Some e -> raise (Unix.Unix_error (e, "connect", "")))

let request_url ?body ?(headers = []) ?(timeout_s = 30.0) ~meth url =
  match parse_url url with
  | Error m -> Error m
  | Ok (host, port, target) -> (
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> (
          try Unix.inet_addr_of_string host
          with Failure _ -> Unix.inet_addr_loopback)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
        connect fd (Unix.ADDR_INET (addr, port)) ~timeout_s;
        let body = Option.value ~default:"" body in
        let extra =
          String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
        in
        let req =
          Printf.sprintf
            "%s %s HTTP/1.1\r\nhost: %s:%d\r\ncontent-length: %d\r\n%s\
             connection: close\r\n\r\n%s"
            (String.uppercase_ascii meth)
            target host port (String.length body) extra body
        in
        write_all fd req 0 (String.length req);
        let buf = Buffer.create 1024 in
        let rec drain () = if read_some fd buf then drain () in
        (* The server closes after one response, so read to EOF. *)
        (try drain ()
         with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
        finally ();
        let all = Buffer.contents buf in
        match find_header_end all with
        | None -> Error "malformed HTTP response (no header terminator)"
        | Some (head_end, sep_len) -> (
            let head = String.sub all 0 head_end in
            match String.split_on_char '\n' head with
            | [] -> Error "empty HTTP response"
            | status_line :: header_lines ->
                let status = parse_status_line status_line in
                let headers =
                  List.filter_map
                    (fun line ->
                      let line = trim line in
                      match String.index_opt line ':' with
                      | None -> None
                      | Some i ->
                          Some
                            ( String.lowercase_ascii
                                (trim (String.sub line 0 i)),
                              trim
                                (String.sub line (i + 1)
                                   (String.length line - i - 1)) ))
                    header_lines
                in
                let body_start = head_end + sep_len in
                Ok
                  ( status,
                    headers,
                    String.sub all body_start (String.length all - body_start)
                  ))
      with
      | Parse_error m ->
          finally ();
          Error m
      | Unix.Unix_error (e, fn, _) ->
          finally ();
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
