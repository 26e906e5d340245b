(* Live-server feature tests: conditional GET, MT mode, access logs, and
   the client-side response parser. *)

(* ---------------- Response_parser (pure) ---------------- *)

module Rp = Http.Response_parser

let test_parse_head_basic () =
  let buf =
    "HTTP/1.0 200 OK\r\nServer: x\r\nContent-Length: 5\r\n\r\nhello"
  in
  match Rp.parse_head buf with
  | Rp.Head (head, consumed) ->
      Alcotest.(check int) "status" 200 head.Rp.status;
      Alcotest.(check string) "reason" "OK" head.Rp.reason;
      Alcotest.(check string) "version" "HTTP/1.0" head.Rp.version;
      Alcotest.(check (option string)) "header" (Some "5")
        (Rp.header head "Content-Length");
      Alcotest.(check string) "body follows" "hello"
        (String.sub buf consumed (String.length buf - consumed))
  | Rp.Incomplete | Rp.Bad _ -> Alcotest.fail "expected Head"

let test_parse_head_incomplete () =
  match Rp.parse_head "HTTP/1.0 200 OK\r\nServer" with
  | Rp.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete"

let test_parse_head_bad () =
  (match Rp.parse_head "NONSENSE\r\n\r\n" with
  | Rp.Bad _ -> ()
  | _ -> Alcotest.fail "expected Bad");
  match Rp.parse_head "HTTP/1.0 9999 Nope\r\n\r\n" with
  | Rp.Bad _ -> ()
  | _ -> Alcotest.fail "expected Bad on out-of-range code"

let test_framing () =
  let head ~status headers =
    { Rp.version = "HTTP/1.0"; status; reason = ""; headers }
  in
  (match Rp.body_framing (head ~status:200 [ ("content-length", "42") ])
           ~head_request:false with
  | Rp.Fixed 42 -> ()
  | _ -> Alcotest.fail "expected Fixed 42");
  (match Rp.body_framing (head ~status:200 []) ~head_request:false with
  | Rp.Until_close -> ()
  | _ -> Alcotest.fail "expected Until_close");
  (match Rp.body_framing (head ~status:200 [ ("content-length", "42") ])
           ~head_request:true with
  | Rp.No_body -> ()
  | _ -> Alcotest.fail "expected No_body for HEAD");
  match Rp.body_framing (head ~status:304 [ ("content-length", "42") ])
          ~head_request:false with
  | Rp.No_body -> ()
  | _ -> Alcotest.fail "expected No_body for 304"

let prop_parser_total =
  Helpers.qcheck_case ~count:300 ~name:"response parser total on bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 120) Gen.char)
    (fun s ->
      match Rp.parse_head s with
      | Rp.Head _ | Rp.Incomplete | Rp.Bad _ -> true)

(* ---------------- date parse/format roundtrip ---------------- *)

let test_date_parse_known () =
  Alcotest.(check (option (float 0.1))) "rfc example" (Some 784111777.)
    (Http.Http_date.parse "Sun, 06 Nov 1994 08:49:37 GMT")

let test_date_parse_bad () =
  Alcotest.(check (option (float 0.1))) "garbage" None
    (Http.Http_date.parse "yesterday-ish");
  Alcotest.(check (option (float 0.1))) "missing GMT" None
    (Http.Http_date.parse "Sun, 06 Nov 1994 08:49:37 PST")

let prop_date_roundtrip =
  Helpers.qcheck_case ~count:300 ~name:"format |> parse roundtrips"
    QCheck.(int_bound 2_000_000_000)
    (fun ts ->
      Http.Http_date.parse (Http.Http_date.format (float_of_int ts))
      = Some (float_of_int ts))

(* ---------------- live server features ---------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let make_docroot () =
  let dir = Filename.temp_file "flash_feat" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  write_file (Filename.concat dir "page.html") "<html>content</html>";
  dir

let with_server ?access_log ?(mode = Flash_live.Server.Amped) f =
  let docroot = make_docroot () in
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      Flash_live.Server.mode;
      access_log;
    }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () -> f server (Flash_live.Server.port server))

let test_conditional_get () =
  with_server (fun _ port ->
      let r1 = Flash_live.Client.get ~host:"127.0.0.1" ~port "/page.html" in
      Alcotest.(check int) "first fetch 200" 200 r1.Flash_live.Client.status;
      let last_modified =
        match List.assoc_opt "last-modified" r1.Flash_live.Client.headers with
        | Some d -> d
        | None -> Alcotest.fail "no Last-Modified header"
      in
      let r2 =
        Flash_live.Client.get
          ~headers:[ ("If-Modified-Since", last_modified) ]
          ~host:"127.0.0.1" ~port "/page.html"
      in
      Alcotest.(check int) "304 on unmodified" 304 r2.Flash_live.Client.status;
      Alcotest.(check string) "no body" "" r2.Flash_live.Client.body;
      (* A date before the mtime still yields the full entity. *)
      let r3 =
        Flash_live.Client.get
          ~headers:
            [ ("If-Modified-Since", Http.Http_date.format 0.) ]
          ~host:"127.0.0.1" ~port "/page.html"
      in
      Alcotest.(check int) "200 when modified since" 200
        r3.Flash_live.Client.status;
      (* Unparseable dates are ignored. *)
      let r4 =
        Flash_live.Client.get
          ~headers:[ ("If-Modified-Since", "not a date") ]
          ~host:"127.0.0.1" ~port "/page.html"
      in
      Alcotest.(check int) "200 on bad date" 200 r4.Flash_live.Client.status)

let test_mt_mode () =
  with_server ~mode:(Flash_live.Server.Mt 3) (fun _ port ->
      let results = Array.make 6 0 in
      let threads =
        List.init 6 (fun i ->
            Thread.create
              (fun () ->
                let r =
                  Flash_live.Client.get ~host:"127.0.0.1" ~port "/page.html"
                in
                if
                  r.Flash_live.Client.status = 200
                  && r.Flash_live.Client.body = "<html>content</html>"
                then results.(i) <- 1)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all served by MT workers" 6
        (Array.fold_left ( + ) 0 results))

(* Every mode writes the same lines: MP children append to the file the
   parent opened before forking, MT workers share its channel. *)
let test_access_log mode () =
  let log_file = Filename.temp_file "flash_access" ".log" in
  with_server ~mode ~access_log:log_file (fun _ port ->
      ignore (Flash_live.Client.get ~host:"127.0.0.1" ~port "/page.html");
      ignore (Flash_live.Client.get ~host:"127.0.0.1" ~port "/missing.html"));
  let ic = open_in log_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check int) "two log lines" 2 (List.length lines);
  (match lines with
  | [ ok_line; err_line ] ->
      Alcotest.(check bool) "200 logged" true
        (Helpers.contains ~affix:"\" 200 " ok_line);
      Alcotest.(check bool) "path logged" true
        (Helpers.contains ~affix:"GET /page.html" ok_line);
      Alcotest.(check bool) "404 logged" true
        (Helpers.contains ~affix:"\" 404 " err_line)
  | _ -> Alcotest.fail "expected exactly two lines");
  Sys.remove log_file

let suite =
  [
    Alcotest.test_case "response parser basics" `Quick test_parse_head_basic;
    Alcotest.test_case "response parser incomplete" `Quick
      test_parse_head_incomplete;
    Alcotest.test_case "response parser rejects garbage" `Quick test_parse_head_bad;
    Alcotest.test_case "body framing rules" `Quick test_framing;
    prop_parser_total;
    Alcotest.test_case "date parse known value" `Quick test_date_parse_known;
    Alcotest.test_case "date parse rejects garbage" `Quick test_date_parse_bad;
    prop_date_roundtrip;
    Alcotest.test_case "conditional GET / 304" `Quick test_conditional_get;
    Alcotest.test_case "MT mode serves concurrently" `Quick test_mt_mode;
    Alcotest.test_case "access log written" `Quick
      (test_access_log Flash_live.Server.Amped);
    Alcotest.test_case "access log written (MP)" `Quick
      (test_access_log (Flash_live.Server.Mp 2));
    Alcotest.test_case "access log written (MT)" `Quick
      (test_access_log (Flash_live.Server.Mt 2));
  ]
