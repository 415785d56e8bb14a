(* The HTTP client as it was before it read the body by its
   Content-Length: every response is read to EOF in 4 KiB reads and
   parsed afterwards.  The reference [Xmserve.Http.request_url]'s
   (status, headers, body) are checked against (test_serve.ml).
   Unchanged but for [parse_url], which is [Xmserve.Http]'s. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let parse_url = Xmserve.Http.parse_url

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
