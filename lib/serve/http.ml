(* Minimal HTTP/1.1 over Unix sockets: exactly the subset the serve
   daemon and its smoke tests need.  Both ends read a head into one small
   buffer until the blank line, then a Content-Length body straight into
   its string; responses are written with Content-Length and Connection:
   close.  No chunked encoding, no keep-alive, no TLS — by design. *)

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

(* One read(2) into [b]; 0 is the peer's EOF. *)
let rec read_into fd b off len =
  match Unix.read fd b off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd b off len

(* Find "\r\n\r\n" at or after [from] in the first [n] bytes of [b];
   tolerate bare "\n\n" from hand-typed peers.  Both ends scan their read
   buffer with it in place. *)
let header_end b n from =
  let rec go i =
    if i + 1 >= n then None
    else
      match Bytes.unsafe_get b i with
      | '\n' when Bytes.unsafe_get b (i + 1) = '\n' -> Some (i, 2)
      | '\r'
        when i + 3 < n
             && Bytes.unsafe_get b (i + 1) = '\n'
             && Bytes.unsafe_get b (i + 2) = '\r'
             && Bytes.unsafe_get b (i + 3) = '\n' ->
          Some (i, 4)
      | _ -> go (i + 1)
  in
  go from

(* What one connection has read and not yet taken: the first [len] bytes
   of [buf]. *)
type reader = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

(* One read into the free end of [r.buf], doubling it first when it is
   full; false at EOF. *)
let fill r =
  if r.len = Bytes.length r.buf then begin
    let b = Bytes.create (2 * r.len) in
    Bytes.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  let n = read_into r.fd r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + n;
  n > 0

(* Read until the head's end is in [r.buf]: [Some (head_end, sep_len)],
   or [None] at EOF before it.  A head longer than [max_header] bytes is
   an error however the reads cut it.  Each search resumes where the
   previous one stopped, less the three bytes a terminator split across
   reads may have left behind. *)
let read_head r ~max_header =
  let rec go from =
    match header_end r.buf r.len from with
    | Some (head_end, _) when head_end > max_header -> fail "header too large"
    | Some cut -> Some cut
    | None ->
        let n = r.len in
        (* a terminator after at most [max_header] bytes ends within 4 more *)
        if n >= max_header + 4 then fail "header too large"
        else if fill r then go (max 0 (n - 3))
        else None
  in
  go 0

(* Fill [body] with the body that starts at [start] in [r.buf]: the part
   the head's reads took is copied once, and the rest is read straight
   into [body]. *)
let read_body r ~start body =
  let length = Bytes.length body in
  let have = min length (r.len - start) in
  Bytes.blit r.buf start body 0 have;
  let rec go off =
    if off < length then
      match read_into r.fd body off (length - off) with
      | 0 -> fail "unexpected EOF in body"
      | n -> go (off + n)
  in
  go have;
  Bytes.unsafe_to_string body

let trim = String.trim

(* ["Name: value"] as [("name", "value")]; [None] without a colon. *)
let header_field line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      Some
        ( String.lowercase_ascii (trim (String.sub line 0 i)),
          trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* The Content-Length header's value, [None] when it is absent.
   @raise Parse_error when it is not a non-negative integer. *)
let content_length headers =
  Option.map
    (fun v ->
      match int_of_string_opt (trim v) with
      | Some n when n >= 0 -> n
      | _ -> fail "malformed Content-Length %S" v)
    (List.assoc_opt "content-length" headers)

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
              match header_field line with
              | None -> fail "malformed header line %S" line
              | field -> field)
          header_lines
      in
      (meth, target, headers)

(* A request is read into a chunk small enough to be allocated young
   (255 words), which grows only for a head longer than it; the body is
   read into a string of its Content-Length. *)
let request_chunk = 2032

let default_max_header = 16 * 1024

let read_request ?(max_header = default_max_header) ?(max_body = 4 * 1024 * 1024) fd =
  let r = { fd; buf = Bytes.create request_chunk; len = 0 } in
  match read_head r ~max_header with
  | None -> if r.len = 0 then None else fail "unexpected EOF in header"
  | Some (head_end, sep_len) ->
      let meth, target, headers = parse_head (Bytes.sub_string r.buf 0 head_end) in
      let length = Option.value ~default:0 (content_length headers) in
      if length > max_body then fail "body too large";
      let body = read_body r ~start:(head_end + sep_len) (Bytes.create length) in
      let path, query = split_target target in
      Some { meth; target; path; query; headers; body }

(* The status line and headers go out in one write and the body in a
   second, straight from [r.body]: no buffer holds a copy of it.  Accepted
   sockets set TCP_NODELAY, so the body's last segment is not held back
   behind the unacknowledged header segment. *)
let write_response fd (r : response) =
  let b = Buffer.create 256 in
  let line k v =
    Buffer.add_string b k;
    Buffer.add_string b ": ";
    Buffer.add_string b v;
    Buffer.add_string b "\r\n"
  in
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int r.status);
  Buffer.add_char b ' ';
  Buffer.add_string b (status_reason r.status);
  Buffer.add_string b "\r\n";
  List.iter (fun (k, v) -> line k v) r.headers;
  line "content-length" (string_of_int (String.length r.body));
  line "connection" "close";
  Buffer.add_string b "\r\n";
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

(* Reads past the body (to the server's close), where a reset counts as
   the close. *)
let until_close f =
  try f () with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()

(* A response of up to 4 KiB, head and body, arrives in the first read. *)
let response_chunk = 4096

(* Read one response: the head, scanned in place, then a body of its
   Content-Length read straight into one string, then on to the server's
   close, so that the server, which closes first, keeps the TIME_WAIT and
   not the client.  Without Content-Length the body is everything up to
   the close. *)
let read_response fd =
  let r = { fd; buf = Bytes.create response_chunk; len = 0 } in
  match read_head r ~max_header:default_max_header with
  | None -> fail "malformed HTTP response (no header terminator)"
  | Some (head_end, sep_len) ->
      let status, headers =
        match String.split_on_char '\n' (Bytes.sub_string r.buf 0 head_end) with
        | [] -> fail "empty HTTP response"
        | status_line :: header_lines ->
            ( parse_status_line status_line,
              List.filter_map (fun line -> header_field (trim line)) header_lines )
      in
      let start = head_end + sep_len in
      let body =
        match content_length headers with
        | Some length ->
            let body =
              match Bytes.create length with
              | b -> read_body r ~start b
              | exception (Out_of_memory | Invalid_argument _) ->
                  fail "Content-Length %d too large" length
            in
            let rec drain () =
              if read_into fd r.buf 0 (Bytes.length r.buf) > 0 then drain ()
            in
            until_close drain;
            body
        | None ->
            let rec to_close () = if fill r then to_close () in
            until_close to_close;
            Bytes.sub_string r.buf start (r.len - start)
      in
      (status, headers, body)

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
      let exchange () =
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
        read_response fd
      in
      match
        Fun.protect exchange ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
      with
      | resp -> Ok resp
      | exception Parse_error m -> Error m
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
