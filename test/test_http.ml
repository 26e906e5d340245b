module Request = Http.Request
module Response = Http.Response
module Status = Http.Status

(* ------------------------- status ------------------------- *)

let test_status_codes () =
  Alcotest.(check int) "200" 200 (Status.code Status.Ok);
  Alcotest.(check int) "404" 404 (Status.code Status.Not_found);
  Alcotest.(check string) "line" "404 Not Found"
    (Status.line_fragment Status.Not_found);
  (* The HTTP/1.1 semantics statuses. *)
  Alcotest.(check string) "206" "206 Partial Content"
    (Status.line_fragment Status.Partial_content);
  Alcotest.(check string) "304" "304 Not Modified"
    (Status.line_fragment Status.Not_modified);
  Alcotest.(check string) "412" "412 Precondition Failed"
    (Status.line_fragment Status.Precondition_failed);
  Alcotest.(check string) "416" "416 Range Not Satisfiable"
    (Status.line_fragment Status.Range_not_satisfiable)

(* ------------------------- mime ------------------------- *)

let test_mime () =
  Alcotest.(check string) "html" "text/html" (Http.Mime.of_path "/a/b.html");
  Alcotest.(check string) "uppercase ext" "image/gif" (Http.Mime.of_path "/x.GIF");
  Alcotest.(check string) "unknown" "application/octet-stream"
    (Http.Mime.of_path "/x.weird");
  Alcotest.(check string) "no extension" "application/octet-stream"
    (Http.Mime.of_path "/README");
  Alcotest.(check string) "dot in dir only" "application/octet-stream"
    (Http.Mime.of_path "/v1.2/file");
  Alcotest.(check string) "trailing dot" "application/octet-stream"
    (Http.Mime.of_path "/file.")

(* ------------------------- dates ------------------------- *)

let test_date_epoch () =
  Alcotest.(check string) "epoch" "Thu, 01 Jan 1970 00:00:00 GMT"
    (Http.Http_date.format 0.)

let test_date_known () =
  (* The RFC 1123 example: Sun, 06 Nov 1994 08:49:37 GMT = 784111777. *)
  Alcotest.(check string) "rfc example" "Sun, 06 Nov 1994 08:49:37 GMT"
    (Http.Http_date.format 784111777.)

let test_date_civil () =
  Alcotest.(check (triple int int int)) "epoch day" (1970, 1, 1)
    (Http.Http_date.civil_of_days 0);
  Alcotest.(check (triple int int int)) "leap day" (2000, 2, 29)
    (Http.Http_date.civil_of_days 11016);
  Alcotest.(check int) "thursday" 4 (Http.Http_date.weekday_of_days 0)

(* ------------------------- request parsing ------------------------- *)

let parse_ok buf =
  match Request.parse buf with
  | Request.Complete (req, consumed) -> (req, consumed)
  | Request.Incomplete -> Alcotest.fail "unexpected Incomplete"
  | Request.Bad msg -> Alcotest.failf "unexpected Bad: %s" msg

let test_parse_simple_get () =
  let req, consumed = parse_ok "GET /index.html HTTP/1.0\r\n\r\n" in
  Alcotest.(check string) "path" "/index.html" req.Request.path;
  Alcotest.(check bool) "GET" true (req.Request.meth = Request.Get);
  Alcotest.(check (pair int int)) "version" (1, 0) req.Request.version;
  Alcotest.(check int) "consumed" 28 consumed;
  Alcotest.(check bool) "1.0 not keep-alive" false (Request.keep_alive req)

let test_parse_headers () =
  let req, _ =
    parse_ok
      "GET /x HTTP/1.1\r\nHost: example.com\r\nUser-Agent: test\r\nConnection: close\r\n\r\n"
  in
  Alcotest.(check (option string)) "host" (Some "example.com")
    (Request.header req "Host");
  Alcotest.(check (option string)) "case-insensitive" (Some "test")
    (Request.header req "user-agent");
  Alcotest.(check bool) "explicit close wins over 1.1" false
    (Request.keep_alive req)

let test_keep_alive_defaults () =
  let req11, _ = parse_ok "GET / HTTP/1.1\r\nHost: h\r\n\r\n" in
  Alcotest.(check bool) "1.1 default keep" true (Request.keep_alive req11);
  let req10ka, _ = parse_ok "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" in
  Alcotest.(check bool) "1.0 + keep-alive header" true (Request.keep_alive req10ka)

let test_parse_query_and_decode () =
  let req, _ = parse_ok "GET /cgi-bin/run%20me?x=1&y=2 HTTP/1.0\r\n\r\n" in
  Alcotest.(check string) "decoded path" "/cgi-bin/run me" req.Request.path;
  Alcotest.(check (option string)) "query" (Some "x=1&y=2") req.Request.query

let test_parse_incremental () =
  (match Request.parse "GET /part" with
  | Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete");
  match Request.parse "GET /part HTTP/1.0\r\nHost: h\r\n" with
  | Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete (no blank line)"

let test_parse_pipelined_consumed () =
  let buf = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" in
  let req, consumed = parse_ok buf in
  Alcotest.(check string) "first request" "/a" req.Request.path;
  let rest = String.sub buf consumed (String.length buf - consumed) in
  let req2, _ = parse_ok rest in
  Alcotest.(check string) "second request" "/b" req2.Request.path

let test_parse_lf_only () =
  let req, _ = parse_ok "GET /lf HTTP/1.0\nHost: h\n\n" in
  Alcotest.(check string) "path" "/lf" req.Request.path;
  Alcotest.(check (option string)) "header" (Some "h") (Request.header req "host")

let test_parse_http09 () =
  let req, _ = parse_ok "GET /old\r\n\r\n" in
  Alcotest.(check (pair int int)) "0.9" (0, 9) req.Request.version

let test_parse_bad () =
  let is_bad buf =
    match Request.parse buf with Request.Bad _ -> true | _ -> false
  in
  Alcotest.(check bool) "bad version" true (is_bad "GET / HTTP/9\r\n\r\n");
  Alcotest.(check bool) "relative target" true (is_bad "GET foo HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "garbage line" true (is_bad "ONE TWO THREE FOUR\r\n\r\n");
  Alcotest.(check bool) "oversized head" true
    (is_bad (String.make 20_000 'x'))

let test_head_and_post () =
  let req, _ = parse_ok "HEAD /h HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "HEAD" true (req.Request.meth = Request.Head);
  let req2, _ = parse_ok "POST /p HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "POST" true (req2.Request.meth = Request.Post);
  let req3, _ = parse_ok "BREW /c HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "other" true (req3.Request.meth = Request.Other "BREW")

let test_normalize_path () =
  let check_norm input expected =
    Alcotest.(check (option string)) input expected (Request.normalize_path input)
  in
  check_norm "/" (Some "/");
  check_norm "/a/b.html" (Some "/a/b.html");
  check_norm "/a//b" (Some "/a/b");
  check_norm "/a/./b" (Some "/a/b");
  check_norm "/a/../b" (Some "/b");
  check_norm "/../etc/passwd" None;
  check_norm "/a/b/../../../x" None;
  check_norm "relative" None;
  check_norm "" None

let prop_parser_never_raises =
  Helpers.qcheck_case ~count:500 ~name:"parser total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.char)
    (fun s ->
      match Request.parse s with
      | Request.Complete _ | Request.Incomplete | Request.Bad _ -> true)

let prop_roundtrip_simple =
  Helpers.qcheck_case ~name:"well-formed GET always parses"
    QCheck.(string_gen_of_size (Gen.int_range 1 30) Gen.printable)
    (fun name ->
      let clean =
        String.map
          (fun c -> if c = ' ' || c = '\r' || c = '\n' || c = '?' then '_' else c)
          name
      in
      let buf = "GET /" ^ clean ^ " HTTP/1.0\r\n\r\n" in
      match Request.parse buf with
      | Request.Complete (req, consumed) ->
          consumed = String.length buf
          && req.Request.raw_target = "/" ^ clean
      | _ -> false)

(* ------------------------- responses ------------------------- *)

let test_response_basic () =
  let h =
    Response.header ~status:Status.Ok ~content_type:"text/html"
      ~content_length:1234 ()
  in
  Alcotest.(check bool) "status line" true
    (String.length h > 17 && String.sub h 0 17 = "HTTP/1.0 200 OK\r\n");
  Alcotest.(check bool) "content length present" true
    (Helpers.contains ~affix:"Content-Length: 1234\r\n" h);
  Alcotest.(check bool) "ends with blank line" true
    (String.sub h (String.length h - 4) 4 = "\r\n\r\n")

let test_response_alignment () =
  (* Flash §5.5: padded headers are a multiple of 32 bytes. *)
  List.iter
    (fun len ->
      let h =
        Response.header ~status:Status.Ok ~content_type:"text/html"
          ~content_length:len ~align:32 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "aligned for len %d" len)
        0
        (String.length h mod 32))
    [ 0; 1; 7; 100; 999; 12345; 1048576 ]

let test_response_alignment_varies_fields () =
  let h1 =
    Response.header ~status:Status.Ok ~content_length:5 ~align:32 ()
  in
  let h2 =
    Response.header ~status:Status.Ok ~content_length:55555 ~align:32 ()
  in
  Alcotest.(check int) "both aligned" 0
    ((String.length h1 mod 32) + (String.length h2 mod 32))

let test_response_keep_alive_header () =
  let h = Response.header ~status:Status.Ok ~keep_alive:true () in
  Alcotest.(check bool) "keep-alive" true
    (Helpers.contains ~affix:"Connection: keep-alive" h);
  let h2 = Response.header ~status:Status.Ok ~keep_alive:false () in
  Alcotest.(check bool) "close" true (Helpers.contains ~affix:"Connection: close" h2)

let test_response_parses_back () =
  (* Our own client-side framing: the header terminates with CRLFCRLF. *)
  let h =
    Response.header ~status:Status.Not_found ~content_type:"text/html"
      ~content_length:10 ~date:1000000. ~align:32 ()
  in
  Alcotest.(check bool) "single blank line at end" true
    (Helpers.contains ~affix:"\r\n\r\n" h)

let test_error_body () =
  let body = Response.error_body Status.Not_found in
  Alcotest.(check bool) "mentions status" true
    (Helpers.contains ~affix:"404 Not Found" body)

let prop_alignment =
  Helpers.qcheck_case ~name:"aligned headers are multiples of 32"
    QCheck.(int_bound 10_000_000)
    (fun len ->
      let h = Response.header ~status:Status.Ok ~content_length:len ~align:32 () in
      String.length h mod 32 = 0)

(* ------------------------- Printf oracles ------------------------- *)

(* The Printf renderings that the date, status-line, ETag and header
   builders replaced, kept verbatim as oracles: the new code must give
   the same bytes. *)
module Oracle = struct
  let weekdays = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

  let months =
    [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun";
       "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

  let http_date ts =
    let total = int_of_float (floor ts) in
    let days = if total >= 0 then total / 86400 else (total - 86399) / 86400 in
    let secs = total - (days * 86400) in
    let year, month, day = Http.Http_date.civil_of_days days in
    Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT"
      weekdays.(Http.Http_date.weekday_of_days days)
      day
      months.(month - 1)
      year (secs / 3600) (secs mod 3600 / 60) (secs mod 60)

  let line_fragment st =
    Printf.sprintf "%d %s" (Status.code st) (Status.reason st)

  let etag ?(suffix = "") ~mtime ~size () =
    Printf.sprintf "\"%x-%x%s\"" (int_of_float (floor mtime)) size suffix

  let render ~version ~server ~content_type ~content_length ~keep_alive ~date
      ~last_modified ~extra ~status =
    let buf = Buffer.create 256 in
    let field name v = Buffer.add_string buf (name ^ ": " ^ v ^ "\r\n") in
    Buffer.add_string buf (version ^ " " ^ line_fragment status ^ "\r\n");
    field "Server" server;
    Option.iter (fun d -> field "Date" (http_date d)) date;
    Option.iter (fun d -> field "Last-Modified" (http_date d)) last_modified;
    Option.iter (field "Content-Type") content_type;
    Option.iter
      (fun n -> field "Content-Length" (string_of_int n))
      content_length;
    Option.iter
      (fun k -> field "Connection" (if k then "keep-alive" else "close"))
      keep_alive;
    List.iter (fun (n, v) -> field n v) extra;
    Buffer.add_string buf "\r\n";
    Buffer.contents buf

  (* Aligned: render, then render again with the Server value padded. *)
  let header ~version ~server ~content_type ~content_length ~keep_alive ~date
      ~last_modified ~extra ~align ~status =
    let go server =
      render ~version ~server ~content_type ~content_length ~keep_alive ~date
        ~last_modified ~extra ~status
    in
    let base = go server in
    match align with
    | None -> base
    | Some a ->
        let r = String.length base mod a in
        if r = 0 then base else go (server ^ String.make (a - r) ' ')
end

(* Timestamps over years 0-9999, fractional seconds included. *)
let year_range_ts =
  let at s = Option.get (Http.Http_date.parse s) in
  QCheck.float_range
    (at "Sat, 01 Jan 0000 00:00:00 GMT")
    (at "Fri, 31 Dec 9999 23:59:59 GMT" +. 0.999)

let prop_date_oracle =
  Helpers.qcheck_case ~count:2000
    ~name:"date format = Printf oracle, years 0-9999"
    year_range_ts
    (fun ts -> String.equal (Http.Http_date.format ts) (Oracle.http_date ts))

let prop_decimal_oracle =
  Helpers.qcheck_case ~count:1000 ~name:"decimal add = %0*d"
    QCheck.(pair (int_bound 8) (oneof [ int; int_range (-99999) 99999 ]))
    (fun (width, n) ->
      QCheck.assume (n <> min_int);
      let buf = Buffer.create 16 in
      Http.Decimal.add ~width buf n;
      String.equal (Buffer.contents buf) (Printf.sprintf "%0*d" width n))

let prop_etag_oracle =
  Helpers.qcheck_case ~count:1000 ~name:"etag make = Printf oracle"
    QCheck.(
      triple
        (oneof [ float_range (-1e12) 1e12; float_range 0. 2e9 ])
        (oneof [ int; int_bound 100_000_000 ])
        (option (string_gen_of_size (Gen.int_range 0 6) Gen.printable)))
    (fun (mtime, size, suffix) ->
      String.equal
        (Http.Etag.make ?suffix ~mtime ~size ())
        (Oracle.etag ?suffix ~mtime ~size ()))

let statuses =
  Status.
    [
      Ok; Partial_content; Moved_permanently; Not_modified; Bad_request;
      Forbidden; Not_found; Precondition_failed; Range_not_satisfiable;
      Request_timeout; Too_many_requests; Internal_server_error;
      Not_implemented; Service_unavailable;
    ]

type fields = {
  version : string;
  server : string;
  content_type : string option;
  content_length : int option;
  keep_alive : bool option;
  date : float option;
  last_modified : float option;
  extra : (string * string) list;
  align : int option;
  status : Status.t;
}

let gen_fields =
  let open QCheck.Gen in
  let word = string_size ~gen:printable (int_range 0 24) in
  let ts = map float_of_int (int_range 0 4_102_444_800) in
  let* version = oneofl [ "HTTP/1.0"; "HTTP/1.1" ] in
  let* server = oneof [ return Response.default_server; word ] in
  let* content_type = opt word in
  let* content_length = opt (int_bound 100_000_000) in
  let* keep_alive = opt bool in
  let* date = opt ts in
  let* last_modified = opt ts in
  let* extra = list_size (int_range 0 4) (pair word word) in
  let* align = oneofl [ None; Some 32 ] in
  let+ status = oneofl statuses in
  { version; server; content_type; content_length; keep_alive; date;
    last_modified; extra; align; status }

let arb_fields =
  QCheck.make gen_fields ~print:(fun f ->
      Printf.sprintf "%s %s server=%S len=%s align=%s"
        f.version (Status.line_fragment f.status) f.server
        (Option.fold ~none:"-" ~some:string_of_int f.content_length)
        (Option.fold ~none:"-" ~some:string_of_int f.align))

let oracle_header ?keep_alive f =
  let keep_alive = if keep_alive = None then f.keep_alive else keep_alive in
  Oracle.header ~version:f.version ~server:f.server ~content_type:f.content_type
    ~content_length:f.content_length ~keep_alive ~date:f.date
    ~last_modified:f.last_modified ~extra:f.extra ~align:f.align
    ~status:f.status

let prop_header_oracle =
  Helpers.qcheck_case ~count:1000 ~name:"header = Printf oracle"
    arb_fields
    (fun f ->
      String.equal
        (Response.header ~version:f.version ~server:f.server
           ?content_type:f.content_type ?content_length:f.content_length
           ?keep_alive:f.keep_alive ?date:f.date ?last_modified:f.last_modified
           ~extra:f.extra ?align:f.align ~status:f.status ())
        (oracle_header f))

let prop_header_pair_oracle =
  Helpers.qcheck_case ~count:1000 ~name:"header_pair = Printf oracle"
    arb_fields
    (fun f ->
      let k, c =
        Response.header_pair ~version:f.version ~server:f.server
          ?content_type:f.content_type ?content_length:f.content_length
          ?date:f.date ?last_modified:f.last_modified ~extra:f.extra
          ?align:f.align ~status:f.status ()
      in
      String.equal k (oracle_header ~keep_alive:true f)
      && String.equal c (oracle_header ~keep_alive:false f))

let test_line_fragment_oracle () =
  List.iter
    (fun st ->
      let want = Oracle.line_fragment st in
      Alcotest.(check string) want want (Status.line_fragment st))
    statuses

let suite =
  [
    Alcotest.test_case "status codes" `Quick test_status_codes;
    Alcotest.test_case "mime mapping" `Quick test_mime;
    Alcotest.test_case "date epoch" `Quick test_date_epoch;
    Alcotest.test_case "date rfc example" `Quick test_date_known;
    Alcotest.test_case "civil calendar" `Quick test_date_civil;
    Alcotest.test_case "parse simple GET" `Quick test_parse_simple_get;
    Alcotest.test_case "parse headers" `Quick test_parse_headers;
    Alcotest.test_case "keep-alive defaults" `Quick test_keep_alive_defaults;
    Alcotest.test_case "query and percent-decode" `Quick test_parse_query_and_decode;
    Alcotest.test_case "incremental parse" `Quick test_parse_incremental;
    Alcotest.test_case "pipelined consumed count" `Quick test_parse_pipelined_consumed;
    Alcotest.test_case "LF-only line endings" `Quick test_parse_lf_only;
    Alcotest.test_case "HTTP/0.9" `Quick test_parse_http09;
    Alcotest.test_case "malformed requests" `Quick test_parse_bad;
    Alcotest.test_case "HEAD and POST" `Quick test_head_and_post;
    Alcotest.test_case "path normalization" `Quick test_normalize_path;
    prop_parser_never_raises;
    prop_roundtrip_simple;
    Alcotest.test_case "response basics" `Quick test_response_basic;
    Alcotest.test_case "response 32-byte alignment" `Quick test_response_alignment;
    Alcotest.test_case "alignment across lengths" `Quick
      test_response_alignment_varies_fields;
    Alcotest.test_case "keep-alive header" `Quick test_response_keep_alive_header;
    Alcotest.test_case "header framing" `Quick test_response_parses_back;
    Alcotest.test_case "error body" `Quick test_error_body;
    prop_alignment;
    prop_decimal_oracle;
    prop_date_oracle;
    prop_etag_oracle;
    Alcotest.test_case "status line = Printf oracle" `Quick
      test_line_fragment_oracle;
    prop_header_oracle;
    prop_header_pair_oracle;
  ]
