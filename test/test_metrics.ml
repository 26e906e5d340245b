(* The unified metrics pipeline: registry -> exposition rendering and
   strict validation, the flight recorder's windowed rollups (qcheck:
   merging every window reproduces the global histogram), and the live
   server's /metrics, ?window=N, SLO health and MP gauge consolidation.
   Reuses the JSON reader from {!Test_status}. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
open Test_status

(* ------------------------------------------------------------------ *)
(* Registry -> exposition round trip                                   *)
(* ------------------------------------------------------------------ *)

let test_render_validates () =
  let reg = Obs.Registry.create () in
  let hist = Obs.Histogram.create () in
  Obs.Histogram.record hist 0.004;
  Obs.Histogram.record hist 0.120;
  Obs.Registry.counter reg ~name:"t_requests_total" ~help:"Requests." (fun () ->
      42);
  Obs.Registry.counter reg ~name:"t_responses_total"
    ~help:"Responses by class."
    ~labels:[ ("class", "2xx") ]
    (fun () -> 40);
  Obs.Registry.counter reg ~name:"t_responses_total"
    ~help:"Responses by class."
    ~labels:[ ("class", "4xx") ]
    (fun () -> 2);
  Obs.Registry.gauge reg ~name:"t_active" ~help:"Active now." (fun () -> 3.);
  Obs.Registry.histogram reg ~name:"t_duration_seconds" ~help:"Latency."
    (fun () -> Obs.Histogram.copy hist);
  (* Label values exercising the format's escapes. *)
  Obs.Registry.info reg ~name:"t_build_info" ~help:"Build."
    ~labels:[ ("version", "weird \"quoted\" \\ back\nnewline") ];
  let text = Obs.Exposition.render (Obs.Registry.collect reg) in
  match Obs.Exposition.validate text with
  | Error msg -> Alcotest.failf "rendered exposition invalid: %s" msg
  | Ok families ->
      let find name =
        match List.find_opt (fun f -> f.Obs.Exposition.f_name = name) families with
        | Some f -> f
        | None -> Alcotest.failf "family %s missing" name
      in
      Alcotest.(check string) "counter typed" "counter"
        (find "t_requests_total").Obs.Exposition.f_type;
      Alcotest.(check int) "labelled series" 2
        (List.length (find "t_responses_total").Obs.Exposition.f_series);
      Alcotest.(check string) "histogram typed" "histogram"
        (find "t_duration_seconds").Obs.Exposition.f_type;
      (* The cumulative ladder ends at +Inf and matches _count. *)
      let series = (find "t_duration_seconds").Obs.Exposition.f_series in
      let value name labels =
        match
          List.find_opt
            (fun s ->
              s.Obs.Exposition.s_name = name
              && s.Obs.Exposition.s_labels = labels)
            series
        with
        | Some s -> s.Obs.Exposition.s_value
        | None -> Alcotest.failf "series %s missing" name
      in
      Alcotest.(check (float 0.))
        "+Inf bucket = count" 2.
        (value "t_duration_seconds_bucket" [ ("le", "+Inf") ]);
      Alcotest.(check (float 0.))
        "_count" 2.
        (value "t_duration_seconds_count" []);
      (* The escaped label value survives parsing verbatim. *)
      let info = find "t_build_info" in
      let labels =
        match info.Obs.Exposition.f_series with
        | [ s ] -> s.Obs.Exposition.s_labels
        | _ -> Alcotest.fail "info should be one series"
      in
      Alcotest.(check (option string))
        "escape round-trip"
        (Some "weird \"quoted\" \\ back\nnewline")
        (List.assoc_opt "version" labels)

let test_registry_rejects_duplicates () =
  let reg = Obs.Registry.create () in
  Obs.Registry.counter reg ~name:"dup_total" ~help:"x" (fun () -> 1);
  (match Obs.Registry.counter reg ~name:"dup_total" ~help:"x" (fun () -> 2) with
  | () -> Alcotest.fail "duplicate (name, labels) should be rejected"
  | exception Invalid_argument _ -> ());
  match
    Obs.Registry.counter reg ~name:"bad name!" ~help:"x" (fun () -> 1)
  with
  | () -> Alcotest.fail "invalid metric name should be rejected"
  | exception Invalid_argument _ -> ()

let test_validator_rejects () =
  let reject what text =
    match Obs.Exposition.validate text with
    | Ok _ -> Alcotest.failf "%s should not validate" what
    | Error _ -> ()
  in
  reject "sample without TYPE" "a 1\n";
  reject "duplicate series" "# TYPE a counter\na 1\na 2\n";
  reject "unsorted labels" "# TYPE a counter\na{b=\"1\",a=\"2\"} 1\n";
  reject "negative counter" "# TYPE a counter\na -1\n";
  reject "redeclared family" "# TYPE a counter\na 1\n# TYPE a counter\n";
  reject "non-monotone buckets"
    "# TYPE h histogram\n\
     h_bucket{le=\"0.1\"} 5\n\
     h_bucket{le=\"1\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 0.5\n\
     h_count 5\n";
  reject "missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_sum 0.5\nh_count 5\n"

(* ------------------------------------------------------------------ *)
(* Flight recorder: rollups are exact deltas                           *)
(* ------------------------------------------------------------------ *)

(* Drive a recorder from a manual clock over random traffic batches and
   check that the ring is lossless: summing every window's request count
   and merging every window's latency histogram reproduces the global
   cumulative state exactly (bucket-for-bucket — Histogram.diff is
   exact). *)
let recorder_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (pair
         (list_size (int_range 0 15) (float_range 0.0002 0.8))
         (float_range 0.3 2.7)))

let recorder_arbitrary =
  QCheck.make recorder_gen
    ~print:(fun batches ->
      Printf.sprintf "%d batches, %d samples" (List.length batches)
        (List.fold_left (fun a (ls, _) -> a + List.length ls) 0 batches))

let drive_recorder batches =
  let now = ref 0. in
  let requests = ref 0 in
  let global = Obs.Histogram.create () in
  let read () =
    ( {
        Obs.Recorder.c_requests = !requests;
        c_bytes = !requests * 100;
        c_writev = !requests;
        c_write = 0;
        c_copied = 0;
        c_cache_hits = 0;
        c_cache_misses = 0;
        c_errors = 0;
        c_wait = 0.;
        c_work = 0.;
        c_latency = Obs.Histogram.copy global;
      },
      { Obs.Recorder.g_active = 1; g_helper_queue = 0; g_mapped = 0 } )
  in
  let r =
    Obs.Recorder.create ~capacity:1000 ~interval:1.0 ~now:(fun () -> !now)
      ~read ()
  in
  List.iter
    (fun (latencies, dt) ->
      now := !now +. dt;
      List.iter
        (fun l ->
          incr requests;
          Obs.Histogram.record global l)
        latencies;
      Obs.Recorder.tick r)
    batches;
  Obs.Recorder.flush r;
  (r, !requests, global)

let prop_rollups_lossless batches =
  let r, total, global = drive_recorder batches in
  let rollups = Obs.Recorder.all r in
  let sum_requests =
    List.fold_left (fun a w -> a + w.Obs.Recorder.requests) 0 rollups
  in
  let merged =
    List.fold_left
      (fun acc w -> Obs.Histogram.merge acc w.Obs.Recorder.latency)
      (Obs.Histogram.create ())
      rollups
  in
  sum_requests = total
  && Obs.Histogram.count merged = Obs.Histogram.count global
  && Helpers.float_eq ~eps:1e-6 (Obs.Histogram.sum merged)
       (Obs.Histogram.sum global)
  && Obs.Histogram.buckets merged = Obs.Histogram.buckets global
  && List.for_all (fun w -> w.Obs.Recorder.r_dur > 0.) rollups

let test_dump_round_trips () =
  let r, total, _ =
    drive_recorder [ ([ 0.002; 0.004 ], 1.0); ([ 0.008 ], 1.0); ([], 0.5) ]
  in
  let j = parse_json (Obs.Recorder.dump_json r) in
  Alcotest.(check int) "capacity" 1000 (to_int (member "capacity" j));
  Alcotest.(check (float 1e-9)) "interval" 1.0 (to_num (member "interval" j));
  let rollups =
    match member "rollups" j with
    | Arr ws -> ws
    | _ -> Alcotest.fail "rollups should be an array"
  in
  Alcotest.(check bool) "windows recorded" true (List.length rollups >= 2);
  let dumped_requests =
    List.fold_left (fun a w -> a + to_int (member "requests" w)) 0 rollups
  in
  Alcotest.(check int) "dump is lossless on requests" total dumped_requests;
  List.iter
    (fun w ->
      Alcotest.(check bool) "dur positive" true (to_num (member "dur" w) > 0.);
      let rps = to_num (member "rps" w) in
      Alcotest.(check bool) "rps finite and sane" true (rps >= 0. && rps < 1e6))
    rollups

(* ------------------------------------------------------------------ *)
(* Live server: /metrics, ?window=N, no-drift, SLO, MP gauges          *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let get port path = Client.get ~host:"127.0.0.1" ~port path

let validate_families body =
  match Obs.Exposition.validate body with
  | Ok families -> families
  | Error msg -> Alcotest.failf "/metrics invalid: %s" msg

let family_opt families name =
  List.find_opt (fun f -> f.Obs.Exposition.f_name = name) families

let series_value families ?(labels = []) name =
  match
    List.concat_map (fun f -> f.Obs.Exposition.f_series) families
    |> List.find_opt (fun s ->
           s.Obs.Exposition.s_name = name && s.Obs.Exposition.s_labels = labels)
  with
  | Some s -> s.Obs.Exposition.s_value
  | None -> Alcotest.failf "series %s missing from /metrics" name

let test_metrics_agrees_with_status () =
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun _server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let r = get port "/metrics" in
      Alcotest.(check int) "/metrics 200" 200 r.Client.status;
      Alcotest.(check (option string))
        "exposition content type"
        (Some "text/plain; version=0.0.4")
        (List.assoc_opt "content-type" r.Client.headers);
      let families = validate_families r.Client.body in
      let prom_requests =
        int_of_float (series_value families "flash_http_requests_total")
      in
      let prom_hits =
        int_of_float
          (series_value families
             ~labels:[ ("cache", "file") ]
             "flash_cache_hits_total")
      in
      let prom_writev =
        int_of_float (series_value families "flash_writev_calls_total")
      in
      (* The latency histogram exposes the full cumulative ladder. *)
      (match family_opt families "flash_request_duration_seconds" with
      | None -> Alcotest.fail "latency family missing"
      | Some f ->
          Alcotest.(check string) "latency is a histogram" "histogram"
            f.Obs.Exposition.f_type);
      Alcotest.(check (float 0.))
        "+Inf bucket equals count"
        (series_value families "flash_request_duration_seconds_count")
        (series_value families
           ~labels:[ ("le", "+Inf") ]
           "flash_request_duration_seconds_bucket");
      (* Scraped one request later, the JSON view must agree up to the
         requests issued in between (the scrapes themselves). *)
      let j = get_status_json port in
      let json_requests = to_int (member "requests" j) in
      Alcotest.(check bool) "file requests counted" true (prom_requests >= 3);
      Alcotest.(check bool) "JSON at or after /metrics" true
        (json_requests >= prom_requests && json_requests - prom_requests <= 2);
      Alcotest.(check int) "cache hits agree exactly" prom_hits
        (to_int (member "hits" (member "cache" j)));
      Alcotest.(check bool) "writev counters agree" true
        (prom_writev > 0
        && to_int (member "writev_calls" (member "send" j)) >= prom_writev))

let test_metrics_disabled () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.metrics_path = None }
    (fun _server port ->
      let r = get port "/metrics" in
      Alcotest.(check int) "plain 404 when disabled" 404 r.Client.status)

(* Both status views print the registry verbatim: every key in the text
   view's metrics section appears in the JSON metrics object and vice
   versa — the two surfaces cannot drift because they are one walk —
   and the JSON view's named fields equal their flat series.  MP runs
   too: whichever child answers renders the shared tally. *)
let test_status_views_never_drift () =
  List.iter
    (fun mode ->
      with_mode mode (fun _server port ->
          ignore (get port "/hello.txt");
          let text = (get port "/server-status").Client.body in
          let j = get_status_json port in
          let text_keys =
            let lines = String.split_on_char '\n' text in
            let rec after_header = function
              | [] -> Alcotest.fail "text view lacks a metrics section"
              | "metrics:" :: rest -> rest
              | _ :: rest -> after_header rest
            in
            after_header lines
            |> List.filter_map (fun line ->
                   if String.length line > 2 && String.sub line 0 2 = "  " then
                     (* key and value separated by the LAST space: label
                        values may themselves contain spaces. *)
                     let body = String.sub line 2 (String.length line - 2) in
                     match String.rindex_opt body ' ' with
                     | Some i -> Some (String.sub body 0 i)
                     | None -> None
                   else None)
          in
          let json_keys =
            match member "metrics" j with
            | Obj kvs -> List.map fst kvs
            | _ -> Alcotest.fail "JSON metrics should be an object"
          in
          Alcotest.(check bool) "registry non-trivial" true
            (List.length text_keys > 20);
          Alcotest.(check (list string))
            "same keys, same order"
            text_keys json_keys;
          check_named_fields j))
    [ Server.Amped; Server.Mp 2 ]

let test_window_returns_rollups () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.recorder_interval = 0.05 }
    (fun _server port ->
      for _ = 1 to 5 do
        ignore (get port "/hello.txt");
        Thread.delay 0.06
      done;
      let r = get port "/server-status?window=50" in
      Alcotest.(check int) "window view 200" 200 r.Client.status;
      let j = parse_json r.Client.body in
      Alcotest.(check int) "echoes N" 50 (to_int (member "window" j));
      let rollups =
        match member "rollups" j with
        | Arr ws -> ws
        | _ -> Alcotest.fail "rollups should be an array"
      in
      Alcotest.(check bool) "several windows closed" true
        (List.length rollups >= 2);
      let requests =
        List.fold_left (fun a w -> a + to_int (member "requests" w)) 0 rollups
      in
      Alcotest.(check bool) "windows saw the traffic" true (requests >= 4);
      Alcotest.(check bool) "some window has non-zero rate" true
        (List.exists (fun w -> to_num (member "rps" w) > 0.) rollups))

let test_recorder_dump_parses () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.recorder_interval = 0.05 }
    (fun server port ->
      ignore (get port "/hello.txt");
      Thread.delay 0.12;
      ignore (get port "/hello.txt");
      (* What the SIGUSR1 handler writes. *)
      let j = parse_json (Server.recorder_dump server) in
      let rollups =
        match member "rollups" j with
        | Arr ws -> ws
        | _ -> Alcotest.fail "rollups should be an array"
      in
      Alcotest.(check bool) "dump has windows" true (rollups <> []);
      let requests =
        List.fold_left (fun a w -> a + to_int (member "requests" w)) 0 rollups
      in
      Alcotest.(check bool) "dump covers the requests" true (requests >= 2))

let test_slo_health () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.recorder_interval = 0.05;
      latency_slo = Some (99., 10_000.);
    }
    (fun _server port ->
      for _ = 1 to 4 do
        ignore (get port "/hello.txt");
        Thread.delay 0.06
      done;
      let j = get_status_json port in
      let health = member "health" j in
      Alcotest.(check string)
        "ten-second budget is healthy" "healthy"
        (to_str (member "state" health));
      Alcotest.(check (float 1e-9)) "no burn" 0. (to_num (member "burn" health));
      Alcotest.(check bool) "windows evaluated" true
        (to_int (member "windows" health) >= 1);
      let families = validate_families (get port "/metrics").Client.body in
      Alcotest.(check (float 0.))
        "flash_slo_state healthy=0" 0.
        (series_value families "flash_slo_state");
      match family_opt families "flash_slo_info" with
      | None -> Alcotest.fail "flash_slo_info missing"
      | Some f -> (
          match f.Obs.Exposition.f_series with
          | [ s ] ->
              Alcotest.(check (option string))
                "target labelled" (Some "10000")
                (List.assoc_opt "target_ms" s.Obs.Exposition.s_labels)
          | _ -> Alcotest.fail "flash_slo_info should be one series"))

(* MP consolidation: child gauges are summed at snapshot time from each
   child's last-shipped value — re-shipping the same gauge must not
   accumulate.  Two children, two persistent connections: the parent
   reports exactly two active connections no matter how many requests
   (and so gauge records) each child ships, and zero after both close. *)
let await ?(tries = 80) pred =
  let rec loop tries =
    if pred () || tries = 0 then pred ()
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let test_mp_gauges_sum_at_snapshot () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      let s1 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let s2 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () ->
          (try Client.Session.close s1 with _ -> ());
          try Client.Session.close s2 with _ -> ())
        (fun () ->
          ignore (Client.Session.request s1 "/hello.txt");
          ignore (Client.Session.request s2 "/hello.txt");
          Alcotest.(check bool) "two active after first requests" true
            (await (fun () ->
                 (Server.stats server).Server.active_connections = 2));
          (* Many more gauge ships from the same children... *)
          for _ = 1 to 5 do
            ignore (Client.Session.request s1 "/hello.txt");
            ignore (Client.Session.request s2 "/hello.txt")
          done;
          ignore
            (await (fun () -> (Server.stats server).Server.requests >= 12));
          (* ...must not inflate the snapshot sum. *)
          Alcotest.(check int) "still exactly two active" 2
            (Server.stats server).Server.active_connections;
          Alcotest.(check bool) "mapped bytes are a sane gauge" true
            ((Server.stats server).Server.mapped_bytes >= 0));
      Alcotest.(check bool) "zero after both closed" true
        (await (fun () ->
             (Server.stats server).Server.active_connections = 0)))

(* MP counters are rows of one shared tally.  The parent's exposition
   sums them, and so does whichever child serves /metrics over HTTP:
   every scrape counts each request sent so far, itself included, and
   successive scrapes never go backwards. *)
let test_mp_metrics_consolidated () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      for _ = 1 to 4 do
        ignore (get port "/hello.txt")
      done;
      ignore (await (fun () -> (Server.stats server).Server.requests >= 4));
      let families = validate_families (Server.metrics_body server) in
      Alcotest.(check bool) "parent consolidates child requests" true
        (series_value families "flash_http_requests_total" >= 4.);
      let sent = ref 4 and last = ref 0 in
      for _ = 1 to 8 do
        ignore (get port "/hello.txt");
        let r = get port "/metrics" in
        sent := !sent + 2;
        let n =
          int_of_float
            (series_value
               (validate_families r.Client.body)
               "flash_http_requests_total")
        in
        Alcotest.(check int) "scrape counts every request sent" !sent n;
        Alcotest.(check bool) "scrapes never decrease" true (n >= !last);
        last := n
      done)

(* Each MP child owns its file cache, and stores that cache's counters
   into its own tally row: every scrape, whichever child serves it,
   counts one lookup per GET sent so far — hits plus misses of the
   whole server, not of the serving child. *)
let test_mp_cache_counters_whole_server () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun _server port ->
      let n = 40 in
      for _ = 1 to n do
        ignore (get port "/hello.txt")
      done;
      for _ = 1 to 6 do
        let families = validate_families (get port "/metrics").Client.body in
        let v name =
          int_of_float (series_value families ~labels:[ ("cache", "file") ] name)
        in
        Alcotest.(check int) "hits + misses = GETs" n
          (v "flash_cache_hits_total" + v "flash_cache_misses_total")
      done)

(* The cache's gauges and admission counts are rows of the tally too:
   after 8 GETs of 8 distinct files, every scrape, whichever child
   serves it, reads the whole server's 8 entries, 8 admissions and one
   resident-bytes total — not the serving child's share. *)
let test_mp_cache_gauges_whole_server () =
  let docroot = Test_live.make_docroot () in
  let files = List.init 8 (fun i -> Printf.sprintf "/f%d.txt" i) in
  List.iteri
    (fun i f ->
      Test_live.write_file (docroot ^ f) (String.make (100 * (i + 1)) 'x'))
    files;
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun _server port ->
      List.iter (fun f -> ignore (get port f)) files;
      let scrape () =
        let families = validate_families (get port "/metrics").Client.body in
        let v name =
          series_value families ~labels:[ ("cache", "file") ] name
          |> int_of_float
        in
        Alcotest.(check int) "misses" 8 (v "flash_cache_misses_total");
        Alcotest.(check int) "entries" 8 (v "flash_cache_entries");
        Alcotest.(check int) "admitted" 8 (v "flash_cache_admitted_total");
        Alcotest.(check int) "rejected" 0 (v "flash_cache_rejected_total");
        v "flash_cache_resident_bytes"
      in
      let first = scrape () in
      Alcotest.(check bool) "bytes resident" true (first > 8 * 100);
      for _ = 2 to 6 do
        Alcotest.(check int) "resident bytes agree" first (scrape ())
      done)

(* Windows close where a loop waits, not where a request runs: an idle
   server still closes one window per interval — the MT main thread's
   parked wait, and each MP child's accept wait, which the ?window=N
   scrape reads (the child's own recorder). *)
let test_idle_servers_close_windows () =
  List.iter
    (fun (name, mode) ->
      let docroot = Test_live.make_docroot () in
      with_config
        {
          (Server.default_config ~docroot) with
          Server.mode;
          recorder_interval = 0.1;
        }
        (fun _server port ->
          Thread.delay 0.35;
          let j = parse_json (get port "/server-status?window=50").Client.body in
          let rollups =
            match member "rollups" j with
            | Arr ws -> ws
            | _ -> Alcotest.fail "rollups should be an array"
          in
          Alcotest.(check bool)
            (name ^ ": idle windows closed")
            true
            (List.length rollups >= 2)))
    [ ("mt:2", Server.Mt 2); ("mp:2", Server.Mp 2) ]

let suite =
  [
    Alcotest.test_case "rendered exposition validates" `Quick
      test_render_validates;
    Alcotest.test_case "registry rejects bad registrations" `Quick
      test_registry_rejects_duplicates;
    Alcotest.test_case "validator rejects malformed payloads" `Quick
      test_validator_rejects;
    Helpers.qcheck_case ~count:150 ~name:"rollup ring is lossless"
      recorder_arbitrary prop_rollups_lossless;
    Alcotest.test_case "recorder dump round-trips JSON" `Quick
      test_dump_round_trips;
    Alcotest.test_case "/metrics agrees with status JSON" `Quick
      test_metrics_agrees_with_status;
    Alcotest.test_case "/metrics disabled serves docroot rules" `Quick
      test_metrics_disabled;
    Alcotest.test_case "status text and JSON never drift" `Quick
      test_status_views_never_drift;
    Alcotest.test_case "?window=N returns live rollups" `Quick
      test_window_returns_rollups;
    Alcotest.test_case "SIGUSR1 dump body parses" `Quick
      test_recorder_dump_parses;
    Alcotest.test_case "SLO health evaluates over windows" `Quick
      test_slo_health;
    Alcotest.test_case "MP gauges sum at snapshot" `Quick
      test_mp_gauges_sum_at_snapshot;
    Alcotest.test_case "MP /metrics consolidates counters" `Quick
      test_mp_metrics_consolidated;
    Alcotest.test_case "MP cache counters are the server's" `Quick
      test_mp_cache_counters_whole_server;
    Alcotest.test_case "MP cache gauges are the server's" `Quick
      test_mp_cache_gauges_whole_server;
    Alcotest.test_case "idle MT and MP close windows" `Quick
      test_idle_servers_close_windows;
  ]
