(** A from-scratch minimal HTTP/1.1 layer over [Unix] sockets.

    Only what the serve daemon needs, with no external dependency: request
    parsing (request line, headers, [Content-Length] body), response
    serialization, percent-decoding for query strings, and a tiny blocking
    client ({!request_url}) used by tests and by [xmorph http] so the smoke
    tests do not depend on [curl].

    Connections are one-request-per-connection: every response carries
    [Connection: close] and the server closes the socket after writing.

    Each body is copied once on each side of the wire.  Both ends find the
    end of the head in place, in the buffer they read it into, and read
    the body straight into one string of its [Content-Length].  The client
    reads a response the same way; without [Content-Length] it reads the
    body up to the close.  After the body it still reads until the server
    closes, so the server, which closes first, keeps the TIME_WAIT and
    the client's ephemeral ports are not used up. *)

type request = {
  meth : string;  (** uppercased: [GET], [POST], ... *)
  target : string;  (** the raw request target, e.g. [/query?doc=a.xml] *)
  path : string;  (** percent-decoded path component *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

val status_reason : int -> string
(** [200 -> "OK"], [404 -> "Not Found"], ... *)

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string ->
  response
(** Build a response; [content_type] defaults to [text/plain].  [headers]
    are appended after the content-type header. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val percent_decode : string -> string
(** Decode [%XX] escapes and [+] as space (malformed escapes pass
    through verbatim). *)

val parse_query : string -> (string * string) list
(** Split [a=1&b=x%20y] into decoded pairs. *)

exception Parse_error of string

val read_request :
  ?max_header:int -> ?max_body:int -> Unix.file_descr -> request option
(** Read one request from the socket.  [None] on a clean EOF before any
    bytes.  Defaults: 16 KiB of header, 4 MiB of body; a head longer than
    [max_header] is refused however the reads cut it.
    @raise Parse_error on a malformed or oversized request. *)

val write_response : Unix.file_descr -> response -> unit
(** Serialize with [Content-Length] and [Connection: close]; ignores
    [EPIPE] (client went away). *)

(** {2 Client} *)

val parse_url : string -> (string * int * string, string) result
(** [http://host:port/path?query] -> [(host, port, target)]; port
    defaults to 80. *)

val request_url :
  ?body:string ->
  ?headers:(string * string) list ->
  ?timeout_s:float ->
  meth:string ->
  string ->
  (int * (string * string) list * string, string) result
(** One blocking HTTP/1.1 request to an [http://] URL; returns
    [(status, headers, body)].  [headers] adds extra request header lines
    (e.g. [traceparent]).  The body is the response's [Content-Length]
    bytes; a connection closed before them is
    [Error "unexpected EOF in body"], and bytes after them are not read
    into it.  A head over 16 KiB or a malformed [Content-Length] is an
    [Error]. *)
