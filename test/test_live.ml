(* End-to-end tests of the live Unix server over real loopback sockets. *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let make_docroot () =
  let dir = Filename.temp_file "flash_docroot" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "sub") 0o755;
  Unix.mkdir (Filename.concat dir "cgi-bin") 0o755;
  write_file (Filename.concat dir "index.html") "<html>home</html>";
  write_file (Filename.concat dir "hello.txt") "hello live world";
  write_file (Filename.concat dir "sub/index.html") "<html>sub</html>";
  write_file (Filename.concat dir "big.bin") (String.make 300_000 'B');
  let cgi = Filename.concat dir "cgi-bin/echo.sh" in
  write_file cgi "#!/bin/sh\necho \"query=$QUERY_STRING method=$REQUEST_METHOD\"\n";
  Unix.chmod cgi 0o755;
  dir

let with_server ?(mode = Flash_live.Server.Amped) ?(tweak = Fun.id) f =
  let docroot = make_docroot () in
  let config =
    tweak
      {
        (Flash_live.Server.default_config ~docroot) with
        Flash_live.Server.mode;
      }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () -> f server (Flash_live.Server.port server))

let get port path = Flash_live.Client.get ~host:"127.0.0.1" ~port path

let test_basic_get mode () =
  with_server ~mode (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "hello live world" r.Flash_live.Client.body;
      Alcotest.(check (option string)) "content type" (Some "text/plain")
        (List.assoc_opt "content-type" r.Flash_live.Client.headers);
      ignore server)

let test_index () =
  with_server (fun _ port ->
      let r = get port "/" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "<html>home</html>" r.Flash_live.Client.body;
      let r2 = get port "/sub/" in
      Alcotest.(check string) "subdir index" "<html>sub</html>"
        r2.Flash_live.Client.body)

let test_not_found () =
  with_server (fun _ port ->
      let r = get port "/nope.html" in
      Alcotest.(check int) "404" 404 r.Flash_live.Client.status)

let test_forbidden_escape () =
  with_server (fun _ port ->
      let r = get port "/../../etc/passwd" in
      Alcotest.(check int) "403" 403 r.Flash_live.Client.status)

let test_head () =
  with_server (fun _ port ->
      let r = Flash_live.Client.get ~meth:"HEAD" ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "no body" "" r.Flash_live.Client.body;
      Alcotest.(check (option string)) "length advertised" (Some "16")
        (List.assoc_opt "content-length" r.Flash_live.Client.headers))

let test_large_file_streams () =
  let docroot = make_docroot () in
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      (* Force the streaming path: cache only tiny files. *)
      Flash_live.Server.max_cached_file = 1024;
    }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () ->
      let r = get (Flash_live.Server.port server) "/big.bin" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check int) "full body" 300_000
        (String.length r.Flash_live.Client.body))

let test_keep_alive_session () =
  with_server (fun server port ->
      let session = Flash_live.Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Flash_live.Client.Session.close session)
        (fun () ->
          let r1 = Flash_live.Client.Session.request session "/hello.txt" in
          let r2 = Flash_live.Client.Session.request session "/index.html" in
          let r3 = Flash_live.Client.Session.request session "/hello.txt" in
          Alcotest.(check (list int)) "three 200s" [ 200; 200; 200 ]
            [ r1.Flash_live.Client.status; r2.Flash_live.Client.status;
              r3.Flash_live.Client.status ];
          Alcotest.(check string) "bodies correct" "hello live world"
            r3.Flash_live.Client.body);
      let stats = Flash_live.Server.stats server in
      Alcotest.(check int) "one connection" 1
        stats.Flash_live.Server.connections;
      Alcotest.(check int) "three requests" 3 stats.Flash_live.Server.requests)

let test_cache_hits () =
  with_server (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "cache hits recorded" true
        (stats.Flash_live.Server.cache_hits >= 2))

(* A cold file goes to a helper: [slow_read] models cold media, so the
   loop's residency test finds none of its pages resident. *)
let cold_media config =
  { config with Flash_live.Server.slow_read = Some ignore }

let test_amped_uses_helpers () =
  with_server ~tweak:cold_media (fun server port ->
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "helper used for cold file" true
        (stats.Flash_live.Server.helper_jobs >= 1))

let test_sped_no_helpers () =
  with_server ~mode:Flash_live.Server.Sped (fun server port ->
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check int) "no helper jobs" 0 stats.Flash_live.Server.helper_jobs)

let test_cgi () =
  with_server (fun _ port ->
      let r = get port "/cgi-bin/echo.sh?x=42" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "cgi output" "query=x=42 method=GET\n"
        r.Flash_live.Client.body)

let test_cgi_missing () =
  with_server (fun _ port ->
      let r = get port "/cgi-bin/ghost.sh" in
      Alcotest.(check int) "404" 404 r.Flash_live.Client.status)

let test_concurrent_clients () =
  with_server (fun server port ->
      let results = Array.make 8 0 in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                for _ = 1 to 5 do
                  let r = get port "/hello.txt" in
                  if r.Flash_live.Client.status = 200 then
                    results.(i) <- results.(i) + 1
                done)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all 40 succeeded" 40 (Array.fold_left ( + ) 0 results);
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "server counted them" true
        (stats.Flash_live.Server.requests >= 40))

let test_mp_mode () =
  with_server ~mode:(Flash_live.Server.Mp 2) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "hello live world" r.Flash_live.Client.body;
      (* A second connection exercises another worker. *)
      let r2 = get port "/index.html" in
      Alcotest.(check int) "second conn" 200 r2.Flash_live.Client.status;
      (* §4.2: children report per-request events over a pipe the parent
         consolidates.  The child's report races the client's read, so
         allow it a moment to arrive. *)
      let rec await_stats tries =
        let stats = Flash_live.Server.stats server in
        if stats.Flash_live.Server.requests >= 2 || tries = 0 then stats
        else begin
          Thread.delay 0.05;
          await_stats (tries - 1)
        end
      in
      let stats = await_stats 40 in
      Alcotest.(check int) "MP stats consolidated over IPC" 2
        stats.Flash_live.Server.requests)

let test_aligned_headers_on_wire () =
  (* Read the raw bytes: the response head must be 32-byte aligned. *)
  with_server (fun _ port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /hello.txt HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 65536 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            drain ()
      in
      drain ();
      Unix.close fd;
      let raw = Buffer.contents acc in
      let rec find_head i =
        if i + 3 >= String.length raw then Alcotest.fail "no head terminator"
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else find_head (i + 1)
      in
      let head_len = find_head 0 in
      Alcotest.(check int) "head length aligned" 0 (head_len mod 32))

(* A connection costs its serving loop no major-heap allocation of its
   own: reads land in one scratch per loop or worker, so 300 one-request
   HTTP/1.0 connections grow the major heap by far less than a 64 KB
   buffer (8,192 words) each.  The client reuses one buffer too, so the
   count is the server's. *)
let test_conn_major_words mode () =
  with_server ~mode (fun _ port ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let req = "GET /hello.txt HTTP/1.0\r\n\r\n" in
      let buf = Bytes.create 4096 in
      let fetch () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        ignore (Unix.write_substring fd req 0 (String.length req));
        let rec drain got =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> got
          | n -> drain (got + n)
        in
        let got = drain 0 in
        Unix.close fd;
        got
      in
      (* Warm the cache and the loop's tables first. *)
      for _ = 1 to 20 do ignore (fetch ()) done;
      let conns = 300 in
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      for _ = 1 to conns do
        if fetch () = 0 then Alcotest.fail "empty response"
      done;
      Gc.minor ();
      let per_conn =
        ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int conns
      in
      if per_conn >= 2048. then
        Alcotest.failf "major heap grew %.0f words per connection" per_conn)

let suite =
  [
    Alcotest.test_case "AMPED basic GET" `Quick
      (test_basic_get Flash_live.Server.Amped);
    Alcotest.test_case "SPED basic GET" `Quick
      (test_basic_get Flash_live.Server.Sped);
    Alcotest.test_case "index resolution" `Quick test_index;
    Alcotest.test_case "404" `Quick test_not_found;
    Alcotest.test_case "403 on escape" `Quick test_forbidden_escape;
    Alcotest.test_case "HEAD" `Quick test_head;
    Alcotest.test_case "large file streams" `Quick test_large_file_streams;
    Alcotest.test_case "keep-alive session" `Quick test_keep_alive_session;
    Alcotest.test_case "file cache hits" `Quick test_cache_hits;
    Alcotest.test_case "AMPED helper jobs" `Quick test_amped_uses_helpers;
    Alcotest.test_case "SPED no helpers" `Quick test_sped_no_helpers;
    Alcotest.test_case "CGI" `Quick test_cgi;
    Alcotest.test_case "CGI missing script" `Quick test_cgi_missing;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "MP mode" `Quick test_mp_mode;
    Alcotest.test_case "32-byte aligned heads on the wire" `Quick
      test_aligned_headers_on_wire;
    Alcotest.test_case "AMPED connections spare the major heap" `Quick
      (test_conn_major_words Flash_live.Server.Amped);
    Alcotest.test_case "MT connections spare the major heap" `Quick
      (test_conn_major_words (Flash_live.Server.Mt 2));
  ]
