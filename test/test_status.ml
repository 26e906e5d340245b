(* Integration tests for the live server's observability: the
   /server-status endpoint across all four architectures, the loop meter's
   stalls separating SPED from AMPED, and the keep-alive idle-timeout
   accounting.  Runs over real loopback sockets. *)

module Server = Flash_live.Server
module Client = Flash_live.Client

(* ------------------------------------------------------------------ *)
(* A tiny JSON reader — just enough to check /server-status?json
   without adding a dependency.                                        *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance (); loop ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); loop ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); loop ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); loop ()
          | Some 'u' ->
              (* Escaped code point: not needed for status output; keep a
                 placeholder so offsets stay sane. *)
              pos := Stdlib.min n (!pos + 5);
              Buffer.add_char b '?';
              loop ()
          | Some c -> Buffer.add_char b c; advance (); loop ()
          | None -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kv -> (
      match List.assoc_opt key kv with
      | Some v -> v
      | None -> Alcotest.failf "JSON object missing key %S" key)
  | _ -> Alcotest.failf "expected JSON object looking up %S" key

let to_int = function
  | Num f -> int_of_float f
  | _ -> Alcotest.fail "expected JSON number"

let to_num = function
  | Num f -> f
  | _ -> Alcotest.fail "expected JSON number"

let to_str = function
  | Str s -> s
  | _ -> Alcotest.fail "expected JSON string"

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_mode ?(tweak = Fun.id) mode f =
  let docroot = Test_live.make_docroot () in
  with_config (tweak { (Server.default_config ~docroot) with Server.mode }) f

let get port path = Client.get ~host:"127.0.0.1" ~port path

(* Poll until [pred (stats server)] holds — MP consolidation and MT
   request accounting happen just after the response bytes go out, so
   the client can observe the response before the counters move. *)
let await_stats ?(tries = 60) server pred =
  let rec loop tries =
    let stats = Server.stats server in
    if pred stats || tries = 0 then stats
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let get_status_json port =
  let r = get port "/server-status?json" in
  Alcotest.(check int) "status endpoint 200" 200 r.Client.status;
  Alcotest.(check (option string))
    "content type" (Some "application/json")
    (List.assoc_opt "content-type" r.Client.headers);
  parse_json r.Client.body

(* Every named field of a ?json page equals its series in the same
   page's flat "metrics" object: one registry walk feeds both, so no
   field may be read from anywhere else. *)
let check_named_fields j =
  let metrics =
    match member "metrics" j with
    | Obj kv -> kv
    | _ -> Alcotest.fail "metrics not an object"
  in
  let series key =
    match List.assoc_opt key metrics with
    | Some v -> to_num v
    | None -> Alcotest.failf "metrics object lacks %S" key
  in
  let eq field v key = Alcotest.(check (float 0.)) field (series key) (to_num v) in
  eq "requests" (member "requests" j) "flash_http_requests_total";
  eq "errors" (member "errors" j) "flash_http_errors_total";
  List.iter
    (fun cls ->
      eq ("responses." ^ cls)
        (member cls (member "responses" j))
        (Printf.sprintf "flash_http_responses_total{class=%s}" cls))
    [ "2xx"; "3xx"; "4xx"; "5xx" ];
  eq "cache.hits" (member "hits" (member "cache" j))
    "flash_cache_hits_total{cache=file}";
  List.iter
    (fun (field, key) -> eq ("send." ^ field) (member field (member "send" j)) key)
    [
      ("writev_calls", "flash_writev_calls_total");
      ("write_calls", "flash_write_calls_total");
      ("bytes_copied", "flash_bytes_copied_total");
      ("bytes_sent", "flash_bytes_sent_total");
    ];
  eq "latency_ms.count"
    (member "count" (member "latency_ms" j))
    "flash_request_duration_seconds_count";
  let loop = member "loop" j in
  eq "loop.wakeups" (member "wakeups" loop) "flash_loop_wakeups_total";
  let wakeups = series "flash_loop_wakeups_total" in
  let ratio =
    if wakeups = 0. then 0. else series "flash_loop_ready_fds_total" /. wakeups
  in
  Alcotest.(check (float (1e-5 *. Float.max 1. ratio)))
    "loop.ready_per_wakeup" ratio
    (to_num (member "ready_per_wakeup" loop));
  (match member "health" j with
  | Null -> ()
  | health ->
      eq "health.burn" (member "burn" health) "flash_slo_burn_ratio";
      eq "health.windows" (member "windows" health) "flash_slo_windows");
  (match member "guard" j with
  | Null -> ()
  | guard ->
      eq "guard.level" (member "level" guard) "flash_guard_state";
      let sheds =
        match member "shed" guard with
        | Obj kv -> kv
        | _ -> Alcotest.fail "guard.shed not an object"
      in
      Alcotest.(check bool) "guard.shed lists reasons" true (sheds <> []);
      List.iter
        (fun (reason, v) ->
          eq ("guard.shed." ^ reason) v
            (Printf.sprintf "flash_guard_shed_total{reason=%s}" reason))
        sheds;
      let total =
        List.fold_left
          (fun a (k, v) ->
            if
              String.starts_with ~prefix:"flash_guard_shed_total{" k
              && not (Helpers.contains k ~affix:"shard=")
            then a +. to_num v
            else a)
          0. metrics
      in
      Alcotest.(check (float 0.))
        "guard.shed_total" total
        (to_num (member "shed_total" guard)));
  match member "sharding" j with
  | Null -> ()
  | sharding ->
      let shards =
        match member "shards" sharding with
        | Arr l -> l
        | _ -> Alcotest.fail "sharding.shards not an array"
      in
      Alcotest.(check bool) "sharding lists shards" true (shards <> []);
      List.iter
        (fun sh ->
          let i = to_int (member "shard" sh) in
          eq
            (Printf.sprintf "sharding.shards[%d].requests" i)
            (member "requests" sh)
            (Printf.sprintf "flash_http_requests_total{shard=%d}" i);
          eq
            (Printf.sprintf "sharding.shards[%d].active" i)
            (member "active" sh)
            (Printf.sprintf "flash_active_connections{shard=%d}" i))
        shards

(* ------------------------------------------------------------------ *)
(* /server-status across the four architectures                        *)
(* ------------------------------------------------------------------ *)

(* Event loop modes render status inside the loop with full visibility
   of the counters: the JSON must agree exactly with [stats]. *)
let test_status_event_loop mode () =
  (* AMPED's helper reports a job only for a cold file. *)
  let tweak = if mode = Server.Amped then Test_live.cold_media else Fun.id in
  with_mode ~tweak mode (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let j = get_status_json port in
      Alcotest.(check string)
        "mode"
        (match mode with Server.Sped -> "sped" | _ -> "amped")
        (to_str (member "mode" j));
      (* The status request increments the counter before rendering, so
         the JSON includes itself. *)
      Alcotest.(check int) "requests" 4 (to_int (member "requests" j));
      Alcotest.(check int) "connections" 4 (to_int (member "connections" j));
      Alcotest.(check int) "errors" 0 (to_int (member "errors" j));
      let cache = member "cache" j in
      Alcotest.(check bool) "cache hits" true (to_int (member "hits" cache) >= 1);
      Alcotest.(check bool) "cache misses" true
        (to_int (member "misses" cache) >= 2);
      (* The structured per-cache view agrees with the legacy summary. *)
      let file = member "file" (member "caches" j) in
      Alcotest.(check string) "file cache policy" "lru"
        (to_str (member "policy" file));
      Alcotest.(check string) "file cache admission" "always"
        (to_str (member "admission" file));
      Alcotest.(check bool) "file cache capacity" true
        (to_int (member "capacity" file) > 0);
      Alcotest.(check int) "file cache hits agree" (to_int (member "hits" cache))
        (to_int (member "hits" file));
      Alcotest.(check int) "file cache misses agree"
        (to_int (member "misses" cache))
        (to_int (member "misses" file));
      Alcotest.(check int) "no evictions yet" 0
        (to_int (member "evictions" file));
      (* Latency histogram covers the three file requests (the status
         request's own latency is recorded after rendering). *)
      let lat = member "latency_ms" j in
      Alcotest.(check int) "latency samples" 3 (to_int (member "count" lat));
      Alcotest.(check bool) "p99 sane" true (to_num (member "p99" lat) >= 0.);
      let loop = member "loop" j in
      Alcotest.(check bool) "loop iterations" true
        (to_int (member "iterations" loop) >= 1);
      (match mode with
      | Server.Amped ->
          let helper = member "helper" j in
          Alcotest.(check bool) "helper jobs" true
            (to_int (member "jobs" helper) >= 1)
      | _ -> Alcotest.(check bool) "no helper" true (member "helper" j = Null));
      (* The JSON agrees with the programmatic stats. *)
      let stats = Server.stats server in
      Alcotest.(check int) "stats.requests matches" stats.Server.requests
        (to_int (member "requests" j));
      Alcotest.(check int) "stats.connections matches" stats.Server.connections
        (to_int (member "connections" j));
      Alcotest.(check int) "stats.cache_hits matches" stats.Server.cache_hits
        (to_int (member "hits" cache)))

(* MT: worker threads share the parent's counters; the request event is
   recorded just after the response is written, so the JSON may lag by
   the in-flight status request. *)
let test_status_mt () =
  with_mode (Server.Mt 2) (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let j = get_status_json port in
      Alcotest.(check string) "mode" "mt:2" (to_str (member "mode" j));
      let json_requests = to_int (member "requests" j) in
      Alcotest.(check bool) "json sees prior requests" true (json_requests >= 2);
      let stats = await_stats server (fun s -> s.Server.requests >= 3) in
      Alcotest.(check int) "all requests counted" 3 stats.Server.requests;
      Alcotest.(check bool) "json within one of stats" true
        (stats.Server.requests - json_requests <= 1))

(* MP: every child counts into its own row of one shared tally (§4.2's
   information gathering without IPC), so whichever child serves the
   scrape reports the whole server — counting itself — and so does the
   parent's [stats]. *)
let test_status_mp () =
  with_mode (Server.Mp 2) (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let j = get_status_json port in
      Alcotest.(check string) "mode" "mp:2" (to_str (member "mode" j));
      Alcotest.(check int) "child scrape sees every request" 3
        (to_int (member "requests" j));
      let stats = await_stats server (fun s -> s.Server.requests >= 3) in
      Alcotest.(check int) "parent sums the children's rows" 3
        stats.Server.requests;
      let lat = Server.latency server in
      Alcotest.(check bool) "latency summed over rows" true
        (Obs.Histogram.count lat >= 3))

(* Counter parity: one request stream moves the same counters in every
   mode, because every mode answers through one request core and counts
   into one tally — with [Mp 2] the scrapes and requests land on either
   child, and each scrape still reports the whole server.  Each
   response is committed before its bytes go out, so a scrape after the
   stream sees all of it without polling. *)
let test_counter_parity () =
  let later = Http.Http_date.format (Unix.gettimeofday () +. 86_400.) in
  let send port payload =
    let fd = Helpers.Raw.connect ~port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.write_substring fd payload 0 (String.length payload));
        let acc = Buffer.create 1024 in
        Helpers.Raw.read_until_close fd acc;
        let r = Buffer.contents acc in
        int_of_string (String.sub r 9 3))
  in
  let req ?(meth = "GET") ?(headers = "") path =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n%s\r\n"
      meth path headers
  in
  let stream =
    [
      (req "/missing.html", 404);
      ("NONSENSE\r\n\r\n", 400);
      (req ~headers:("If-Modified-Since: " ^ later ^ "\r\n") "/hello.txt", 304);
      (req ~headers:"Range: bytes=0-3\r\n" "/hello.txt", 206);
      (req "/hello.txt", 200);
      (req ~meth:"POST" "/hello.txt", 501);
    ]
  in
  let counters j =
    let responses = member "responses" j in
    [
      ("requests", to_int (member "requests" j));
      ("errors", to_int (member "errors" j));
    ]
    @ List.map
        (fun cls -> (cls, to_int (member cls responses)))
        [ "2xx"; "3xx"; "4xx"; "5xx" ]
  in
  let deltas mode =
    with_mode mode (fun _ port ->
        let before = counters (get_status_json port) in
        List.iter
          (fun (payload, status) ->
            Alcotest.(check int) "stream status" status (send port payload))
          stream;
        let after = counters (get_status_json port) in
        List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before)
  in
  let amped = deltas Server.Amped in
  (* Six requests plus the second scrape; the first scrape's response
     is committed after it renders, so it lands in the second's 2xx. *)
  Alcotest.(check (list (pair string int)))
    "AMPED deltas"
    [
      ("requests", 7); ("errors", 3); ("2xx", 3); ("3xx", 1); ("4xx", 2);
      ("5xx", 1);
    ]
    amped;
  List.iter
    (fun (name, mode) ->
      Alcotest.(check (list (pair string int))) (name ^ " deltas") amped
        (deltas mode))
    [
      ("SPED", Server.Sped);
      ("MP", Server.Mp 1);
      ("MP:2", Server.Mp 2);
      ("MT", Server.Mt 2);
    ]

let test_status_text () =
  with_mode Server.Amped (fun _server port ->
      ignore (get port "/hello.txt");
      let r = get port "/server-status" in
      Alcotest.(check int) "200" 200 r.Client.status;
      Alcotest.(check (option string))
        "plain text" (Some "text/plain")
        (List.assoc_opt "content-type" r.Client.headers);
      Alcotest.(check bool) "mode line" true
        (Helpers.contains ~affix:"mode:" r.Client.body);
      Alcotest.(check bool) "latency line" true
        (Helpers.contains ~affix:"latency:" r.Client.body))

(* ------------------------------------------------------------------ *)
(* Path-resolution isolation of the endpoint                           *)
(* ------------------------------------------------------------------ *)

(* The endpoint is matched on the raw request path before docroot
   resolution: a docroot file with the same name is shadowed while the
   endpoint is enabled and served normally when it is disabled. *)
let test_status_shadows_docroot_file () =
  let docroot = Test_live.make_docroot () in
  Test_live.write_file (Filename.concat docroot "server-status") "DECOY";
  with_config (Server.default_config ~docroot) (fun _server port ->
      let r = get port "/server-status" in
      Alcotest.(check bool) "endpoint wins" true
        (Helpers.contains ~affix:"mode:" r.Client.body);
      Alcotest.(check bool) "decoy not served" false
        (Helpers.contains ~affix:"DECOY" r.Client.body);
      (* Traversal cannot reach the endpoint by another spelling. *)
      let r403 = get port "/../server-status" in
      Alcotest.(check int) "escape still 403" 403 r403.Client.status)

let test_status_disabled_serves_docroot () =
  let docroot = Test_live.make_docroot () in
  Test_live.write_file (Filename.concat docroot "server-status") "DECOY";
  with_config
    { (Server.default_config ~docroot) with Server.status_path = None }
    (fun _server port ->
      let r = get port "/server-status" in
      Alcotest.(check int) "200" 200 r.Client.status;
      Alcotest.(check string) "docroot file served" "DECOY" r.Client.body)

let test_status_custom_path () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.status_path = Some "/_flash/metrics";
    }
    (fun _server port ->
      let r = get port "/_flash/metrics?json" in
      Alcotest.(check int) "custom path serves status" 200 r.Client.status;
      ignore (parse_json r.Client.body);
      let r404 = get port "/server-status" in
      Alcotest.(check int) "default path is plain 404 now" 404
        r404.Client.status)

let test_status_not_in_access_log () =
  let docroot = Test_live.make_docroot () in
  let log = Filename.temp_file "flash_access" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_config
        { (Server.default_config ~docroot) with Server.access_log = Some log }
        (fun _server port ->
          ignore (get port "/hello.txt");
          ignore (get port "/server-status");
          ignore (get port "/server-status?json");
          ignore (get port "/hello.txt"));
      let ic = open_in log in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "real traffic logged" true
        (Helpers.contains ~affix:"/hello.txt" contents);
      Alcotest.(check bool) "status requests excluded" false
        (Helpers.contains ~affix:"server-status" contents))

(* ------------------------------------------------------------------ *)
(* The loop meter separates the architectures (§3.3)                   *)
(* ------------------------------------------------------------------ *)

(* Identical traffic, identical injected disk slowness; only the mode
   differs.  SPED does the cold read inline and the loop stalls; AMPED
   ships it to a helper and the loop keeps spinning. *)
let stall_config ~docroot mode =
  {
    (Server.default_config ~docroot) with
    Server.mode;
    stall_threshold = 0.1;
    slow_read = Some (fun _path -> Thread.delay 0.3);
  }

let test_sped_stalls_on_cold_read () =
  let docroot = Test_live.make_docroot () in
  with_config (stall_config ~docroot Server.Sped) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "served despite the stall" 200 r.Client.status;
      let stats = Server.stats server in
      Alcotest.(check bool) "loop stalled" true (stats.Server.loop_stalls >= 1);
      Alcotest.(check bool) "stall spans the injected delay" true
        (stats.Server.loop_max_stall >= 0.25))

let test_amped_does_not_stall () =
  let docroot = Test_live.make_docroot () in
  with_config (stall_config ~docroot Server.Amped) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "served" 200 r.Client.status;
      let stats = Server.stats server in
      (* The same 300 ms of disk slowness happened — but in a helper. *)
      Alcotest.(check int) "loop never stalled" 0 stats.Server.loop_stalls;
      Alcotest.(check bool) "helper did the slow work" true
        (stats.Server.helper_jobs >= 1);
      match Server.helper_job_latency server with
      | None -> Alcotest.fail "AMPED should expose helper job latency"
      | Some h ->
          Alcotest.(check bool) "job latency spans the injected delay" true
            (Obs.Histogram.max h >= 0.25))

(* ------------------------------------------------------------------ *)
(* Keep-alive idle timeout accounting                                  *)
(* ------------------------------------------------------------------ *)

let test_idle_timeout_closes_and_accounts () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.idle_timeout = 0.3 }
    (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "first request ok" 200 r.Client.status;
      let live = Server.stats server in
      Alcotest.(check int) "connection active" 1 live.Server.active_connections;
      (* The sweep runs each loop iteration (select wakes at least every
         0.5 s), so the idle connection must be reaped shortly after the
         timeout. *)
      let stats =
        await_stats ~tries:80 server (fun s -> s.Server.active_connections = 0)
      in
      Alcotest.(check int) "idle connection reaped" 0
        stats.Server.active_connections;
      Alcotest.(check int) "still one connection total" 1
        stats.Server.connections;
      Alcotest.(check int) "still one request" 1 stats.Server.requests;
      (* The socket really was closed server-side. *)
      (match Client.Session.request session "/hello.txt" with
      | _ -> Alcotest.fail "request on a reaped connection should fail"
      | exception _ -> ());
      Client.Session.close session;
      (* A fresh connection works and the accounting keeps going. *)
      let r2 = get port "/hello.txt" in
      Alcotest.(check int) "server still serving" 200 r2.Client.status;
      let stats2 = Server.stats server in
      Alcotest.(check int) "second connection counted" 2
        stats2.Server.connections)

(* The loop reads the clock three times an iteration.  An idle SPED
   server wakes only for its periodic tick, which reads it once more
   (the recorder's window check), so the reads stay within four per
   iteration plus startup's few. *)
let test_loop_clock_reads () =
  let docroot = Test_live.make_docroot () in
  let reads = Atomic.make 0 in
  let clock () =
    Atomic.incr reads;
    Unix.gettimeofday ()
  in
  let server =
    Server.start_background
      {
        (Server.default_config ~docroot) with
        Server.mode = Server.Sped;
        clock;
        recorder_interval = 0.01;
      }
  in
  Thread.delay 0.3;
  Server.stop server;
  let n = Atomic.get reads in
  let iterations = (Server.stats server).Server.loop_wakeups in
  Alcotest.(check bool) "the loop ticked" true (iterations >= 5);
  if n > (4 * iterations) + 16 then
    Alcotest.failf "%d clock reads over %d iterations" n iterations;
  let families =
    match Obs.Exposition.validate (Server.metrics_body server) with
    | Ok families -> families
    | Error msg -> Alcotest.failf "/metrics invalid: %s" msg
  in
  let value name =
    List.concat_map (fun f -> f.Obs.Exposition.f_series) families
    |> List.find (fun s -> s.Obs.Exposition.s_name = name)
    |> fun s -> s.Obs.Exposition.s_value
  in
  Alcotest.(check (float 0.))
    "iterations = wakeups"
    (value "flash_loop_iterations_total")
    (value "flash_loop_wakeups_total")

(* Per-request latency lands in the histogram in every mode. *)
let test_latency_recorded mode () =
  with_mode mode (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let rec await tries =
        if Obs.Histogram.count (Server.latency server) >= 2 || tries = 0 then ()
        else begin
          Thread.delay 0.05;
          await (tries - 1)
        end
      in
      await 40;
      let lat = Server.latency server in
      Alcotest.(check int) "two samples" 2 (Obs.Histogram.count lat);
      Alcotest.(check bool) "latencies positive" true (Obs.Histogram.min lat >= 0.))

let suite =
  [
    Alcotest.test_case "AMPED /server-status JSON" `Quick
      (test_status_event_loop Server.Amped);
    Alcotest.test_case "SPED /server-status JSON" `Quick
      (test_status_event_loop Server.Sped);
    Alcotest.test_case "MT /server-status JSON" `Quick test_status_mt;
    Alcotest.test_case "MP /server-status JSON" `Quick test_status_mp;
    Alcotest.test_case "counters agree across modes" `Quick
      test_counter_parity;
    Alcotest.test_case "text status" `Quick test_status_text;
    Alcotest.test_case "endpoint shadows docroot file" `Quick
      test_status_shadows_docroot_file;
    Alcotest.test_case "disabled endpoint serves docroot" `Quick
      test_status_disabled_serves_docroot;
    Alcotest.test_case "custom status path" `Quick test_status_custom_path;
    Alcotest.test_case "status excluded from access log" `Quick
      test_status_not_in_access_log;
    Alcotest.test_case "SPED stalls on cold read" `Quick
      test_sped_stalls_on_cold_read;
    Alcotest.test_case "AMPED does not stall" `Quick test_amped_does_not_stall;
    Alcotest.test_case "loop: 3 clock reads an iteration" `Quick
      test_loop_clock_reads;
    Alcotest.test_case "idle timeout reaps and accounts" `Quick
      test_idle_timeout_closes_and_accounts;
    Alcotest.test_case "latency recorded (AMPED)" `Quick
      (test_latency_recorded Server.Amped);
    Alcotest.test_case "latency recorded (SPED)" `Quick
      (test_latency_recorded Server.Sped);
    Alcotest.test_case "latency recorded (MT)" `Quick
      (test_latency_recorded (Server.Mt 2));
    Alcotest.test_case "latency recorded (MP)" `Quick
      (test_latency_recorded (Server.Mp 2));
  ]
