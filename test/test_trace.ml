(* Request-lifecycle tracing: unit and property tests of the Obs.Trace
   collector (ring buffer, nesting, binary framing, Chrome JSON) plus
   live integration across the four architectures — the disk-read span
   must land on the helper track under AMPED and on the main loop under
   SPED, MP children must put theirs in the shared trace ring, and
   /server-trace must serve parseable Chrome trace-event JSON
   everywhere. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Trace = Obs.Trace

(* A collector on a hand-cranked clock. *)
let mk ?(capacity = 4) ?(max_spans = 8) () =
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) ~capacity ~max_spans () in
  (t, now)

let tick now dt = now := !now +. dt

(* ------------------------------------------------------------------ *)
(* Ring-buffer properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_ring_capacity =
  QCheck.Test.make ~count:200 ~name:"ring keeps the newest <= capacity traces"
    QCheck.(pair (int_range 0 20) (int_range 1 8))
    (fun (n, cap) ->
      let now = ref 0.0 in
      let t = Trace.create ~clock:(fun () -> !now) ~capacity:cap () in
      for i = 0 to n - 1 do
        let tr = Trace.start t ~label:(Printf.sprintf "req-%d" i) () in
        tick now 1.0;
        ignore (Trace.finish t tr)
      done;
      let snap = Trace.snapshot t in
      List.length snap = min n cap
      && Trace.completed t = n
      && Trace.evicted t = max 0 (n - cap)
      && (* FIFO eviction: the survivors are the newest, oldest first. *)
      List.map (fun (d : Trace.trace_data) -> d.Trace.label) snap
         = List.init (min n cap) (fun i ->
               Printf.sprintf "req-%d" (n - min n cap + i)))

let prop_span_bound =
  QCheck.Test.make ~count:200 ~name:"per-trace span count is bounded"
    QCheck.(pair (int_range 0 30) (int_range 1 10))
    (fun (n, bound) ->
      let now = ref 0.0 in
      let t = Trace.create ~clock:(fun () -> !now) ~max_spans:bound () in
      let tr = Trace.start t () in
      for i = 0 to n - 1 do
        let sp = Trace.begin_span t tr (Printf.sprintf "s%d" i) in
        tick now 0.5;
        Trace.end_span t sp
      done;
      let d = Trace.finish t tr in
      List.length d.Trace.spans <= bound
      && d.Trace.truncated = max 0 (n - bound)
      && List.length d.Trace.spans + d.Trace.truncated = n)

(* Random begin/end sequences: whatever the interleaving, finished
   traces are well-formed — spans have t_start <= t_stop within the
   trace window, and depths are non-negative. *)
let prop_well_formed =
  let op = QCheck.Gen.(frequency [ (3, return `Begin); (2, return `End) ]) in
  QCheck.Test.make ~count:300 ~name:"random begin/end yields well-formed spans"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op))
    (fun ops ->
      let now = ref 0.0 in
      let t = Trace.create ~clock:(fun () -> !now) ~max_spans:64 () in
      let tr = Trace.start t () in
      let stack = ref [] in
      List.iteri
        (fun i o ->
          tick now 1.0;
          match o with
          | `Begin -> stack := Trace.begin_span t tr (Printf.sprintf "s%d" i) :: !stack
          | `End -> (
              match !stack with
              | [] -> ()
              | sp :: rest ->
                  Trace.end_span t sp;
                  stack := rest))
        ops;
      tick now 1.0;
      let d = Trace.finish t tr in
      List.for_all
        (fun (s : Trace.span_data) ->
          s.Trace.t_start <= s.Trace.t_stop
          && s.Trace.t_start >= d.Trace.t_begin
          && s.Trace.t_stop <= d.Trace.t_end
          && s.Trace.depth >= 0)
        d.Trace.spans)

(* end_span on an outer span closes still-open children at the same
   instant — the exporter never sees a dangling child. *)
let test_end_closes_children () =
  let t, now = mk () in
  let tr = Trace.start t () in
  let outer = Trace.begin_span t tr "outer" in
  tick now 1.0;
  let _inner = Trace.begin_span t tr "inner" in
  tick now 1.0;
  Trace.end_span t outer;
  tick now 5.0;
  let d = Trace.finish t tr in
  let inner = List.find (fun s -> s.Trace.name = "inner") d.Trace.spans in
  let outer = List.find (fun s -> s.Trace.name = "outer") d.Trace.spans in
  Alcotest.(check (float 1e-9)) "child closed with parent" outer.Trace.t_stop
    inner.Trace.t_stop;
  Alcotest.(check int) "child nested one deeper" (outer.Trace.depth + 1)
    inner.Trace.depth

(* ------------------------------------------------------------------ *)
(* Binary framing (the MP stats-pipe payload)                          *)
(* ------------------------------------------------------------------ *)

let arb_label =
  (* Lean on nasty content: quotes, backslashes, control bytes. *)
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" cs)
      (list_size (int_range 0 12)
         (frequency
            [
              (3, map (String.make 1) (char_range 'a' 'z'));
              (1, return "\"");
              (1, return "\\");
              (1, return "\n");
              (1, return "\x01");
              (1, return "GET /x?q=\xc3\xa9");
            ])))
  |> QCheck.make

let prop_binary_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_binary/of_binary round-trips"
    QCheck.(pair (QCheck.pair arb_label arb_label) (int_range 0 5))
    (fun ((label, span_name), nspans) ->
      let t, now = mk ~max_spans:16 () in
      let tr = Trace.start t ~label () in
      for i = 0 to nspans - 1 do
        let sp =
          Trace.begin_span t tr
            ~track:(if i mod 2 = 0 then "helper" else "main-loop")
            span_name
        in
        tick now 0.25;
        Trace.end_span t sp
      done;
      let d = Trace.finish t tr in
      let bin = Trace.to_binary d in
      (* Embedded in a larger buffer, as on the pipe. *)
      match Trace.of_binary ("XX" ^ bin ^ "tail") ~pos:2 with
      | None -> false
      | Some (d', next) ->
          next = 2 + String.length bin
          && d'.Trace.label = d.Trace.label
          && d'.Trace.t_begin = d.Trace.t_begin
          && d'.Trace.t_end = d.Trace.t_end
          && d'.Trace.truncated = d.Trace.truncated
          && List.length d'.Trace.spans = List.length d.Trace.spans
          && List.for_all2
               (fun (a : Trace.span_data) (b : Trace.span_data) ->
                 a.Trace.name = b.Trace.name
                 && a.Trace.track = b.Trace.track
                 && a.Trace.t_start = b.Trace.t_start
                 && a.Trace.t_stop = b.Trace.t_stop
                 && a.Trace.depth = b.Trace.depth)
               d.Trace.spans d'.Trace.spans)

let test_of_binary_garbage () =
  Alcotest.(check bool) "truncated input rejected" true
    (Trace.of_binary "\x01\x02" ~pos:0 = None);
  Alcotest.(check bool) "empty input rejected" true
    (Trace.of_binary "" ~pos:0 = None)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let chrome_events t =
  let j = Test_status.parse_json (Trace.to_chrome_json (Trace.snapshot t)) in
  match Test_status.member "traceEvents" j with
  | Test_status.Arr evs -> evs
  | _ -> Alcotest.fail "traceEvents is not an array"

let test_chrome_json_roundtrip () =
  let t, now = mk () in
  let tr = Trace.start t ~label:"GET /a\"b\\c\n\x02" () in
  let sp = Trace.begin_span t tr ~track:"he\"lper" "disk\\read" in
  tick now 0.004;
  Trace.end_span t sp;
  Trace.instant t tr "close";
  ignore (Trace.finish t tr);
  let evs = chrome_events t in
  Alcotest.(check bool) "has events" true (List.length evs >= 2);
  let phases =
    List.map (fun e -> Test_status.to_str (Test_status.member "ph" e)) evs
  in
  Alcotest.(check bool) "has complete events" true (List.mem "X" phases);
  (* The nasty track name survives escaping and lands in a pid-naming
     metadata event. *)
  let named =
    List.filter_map
      (fun e ->
        match Test_status.member "ph" e with
        | Test_status.Str "M" ->
            Some
              (Test_status.to_str
                 (Test_status.member "name"
                    (Test_status.member "args" e)))
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "track metadata present" true
    (List.mem "he\"lper" named);
  (* Complete events carry non-negative ts/dur in microseconds. *)
  List.iter
    (fun e ->
      match Test_status.member "ph" e with
      | Test_status.Str "X" ->
          Alcotest.(check bool) "ts >= 0" true
            (Test_status.to_num (Test_status.member "ts" e) >= 0.);
          Alcotest.(check bool) "dur >= 0" true
            (Test_status.to_num (Test_status.member "dur" e) >= 0.)
      | _ -> ())
    evs

let test_chrome_json_empty () =
  let t, _ = mk () in
  let evs = chrome_events t in
  Alcotest.(check int) "no events" 0 (List.length evs)

let test_summary () =
  let t, now = mk () in
  let tr = Trace.start t ~label:"GET /x" () in
  let sp = Trace.begin_span t tr "parse" in
  tick now 0.002;
  Trace.end_span t sp;
  let d = Trace.finish t tr in
  let s = Trace.summary d in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "summary has %S" affix) true
        (Helpers.contains ~affix s))
    [ "GET /x"; "parse"; "main-loop"; "ms" ]

(* ------------------------------------------------------------------ *)
(* The MP trace ring                                                   *)
(* ------------------------------------------------------------------ *)

module Ring = Flash_live.Trace_ring

let ring_trace ?(spans = 1) label =
  {
    Trace.id = 0;
    label;
    t_begin = 1.0;
    t_end = 2.0;
    spans =
      List.init spans (fun i ->
          {
            Trace.name = Printf.sprintf "span-%02d" i;
            track = "mp-child-1";
            t_start = 1.0;
            t_stop = 1.5;
            depth = 0;
          });
    truncated = 0;
  }

let labels snap = List.map (fun (d : Trace.trace_data) -> d.Trace.label) snap

(* Each row keeps its own newest [capacity] records however many the
   other rows hold, and the totals count what wrapped. *)
let test_ring_wraps () =
  let ring = Ring.create ~rows:2 ~capacity:3 in
  Ring.claim ring 0;
  for i = 1 to 7 do
    Ring.push ring (ring_trace (Printf.sprintf "a%d" i))
  done;
  Ring.claim ring 1;
  Ring.push ring (ring_trace "b1");
  let snap = Ring.snapshot ring in
  Alcotest.(check (list string)) "newest per row" [ "a5"; "a6"; "a7"; "b1" ]
    (List.sort compare (labels snap));
  Alcotest.(check int) "completed" 8 (Ring.completed ring);
  Alcotest.(check int) "evicted" 4 (Ring.evicted ring);
  Alcotest.(check int) "capacity" 6 (Ring.capacity ring);
  let ids = List.map (fun (d : Trace.trace_data) -> d.Trace.id) snap in
  Alcotest.(check int) "ids unique" 4
    (List.length (List.sort_uniq compare ids));
  let d = List.find (fun (d : Trace.trace_data) -> d.Trace.label = "b1") snap in
  Alcotest.(check int) "spans intact" 1 (List.length d.Trace.spans)

(* A record past one slot keeps its leading spans, in order, and counts
   the rest as truncated instead of being dropped. *)
let test_ring_truncates () =
  let ring = Ring.create ~rows:1 ~capacity:2 in
  Ring.push ring (ring_trace ~spans:60 "big");
  match Ring.snapshot ring with
  | [ d ] ->
      let kept = List.length d.Trace.spans in
      Alcotest.(check bool) "some spans kept" true (kept > 0);
      Alcotest.(check int) "the rest counted" 60 (kept + d.Trace.truncated);
      Alcotest.(check bool) "truncated > 0" true (d.Trace.truncated > 0);
      Alcotest.(check (list string)) "leading spans"
        (List.init kept (Printf.sprintf "span-%02d"))
        (List.map (fun (s : Trace.span_data) -> s.Trace.name) d.Trace.spans)
  | snap -> Alcotest.failf "expected one trace, got %d" (List.length snap)

(* A slot whose two stamps differ is a record being rewritten: skipped,
   while the row's other records still render. *)
let test_ring_skips_torn () =
  let ring = Ring.create ~rows:2 ~capacity:4 in
  Ring.push ring (ring_trace "a1");
  Ring.push ring (ring_trace "a2");
  Ring.claim ring 1;
  Ring.push ring (ring_trace "b1");
  Ring.tear ring ~row:0;
  Alcotest.(check (list string)) "torn slot skipped" [ "a1"; "b1" ]
    (List.sort compare (labels (Ring.snapshot ring)));
  Alcotest.(check int) "still counted as completed" 3 (Ring.completed ring)

(* ------------------------------------------------------------------ *)
(* Live integration                                                    *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_mode ?(tweak = fun c -> c) mode f =
  let docroot = Test_live.make_docroot () in
  with_config (tweak { (Server.default_config ~docroot) with Server.mode }) f

let get port path = Client.get ~host:"127.0.0.1" ~port path

(* Traces finish slightly after the response bytes reach the client, so
   poll. *)
let await_traces ?(tries = 80) server pred =
  let rec loop tries =
    let snap = Server.trace_snapshot server in
    if pred snap || tries = 0 then snap
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let span_on ~name ~track (d : Trace.trace_data) =
  List.exists
    (fun (s : Trace.span_data) -> s.Trace.name = name && s.Trace.track = track)
    d.Trace.spans

let has_span ~name ~track snap = List.exists (span_on ~name ~track) snap

(* Every mode serves /server-trace as parseable Chrome JSON containing
   the earlier request, asked on the same keep-alive connection. *)
let test_trace_endpoint mode () =
  with_mode mode (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r1 = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "request ok" 200 r1.Client.status;
      ignore (await_traces server (fun snap -> List.length snap >= 1));
      let r = Client.Session.request session "/server-trace" in
      Client.Session.close session;
      Alcotest.(check int) "trace endpoint 200" 200 r.Client.status;
      Alcotest.(check (option string))
        "content type" (Some "application/json")
        (List.assoc_opt "content-type" r.Client.headers);
      let j = Test_status.parse_json r.Client.body in
      match Test_status.member "traceEvents" j with
      | Test_status.Arr evs ->
          Alcotest.(check bool) "events present" true (List.length evs > 0);
          let names =
            List.filter_map
              (fun e ->
                match Test_status.member "ph" e with
                | Test_status.Str "X" ->
                    Some (Test_status.to_str (Test_status.member "name" e))
                | _ -> None)
              evs
          in
          Alcotest.(check bool) "parse span exported" true
            (List.mem "parse" names)
      | _ -> Alcotest.fail "traceEvents is not an array")

(* The architectural claim, as data: an identical cold read is
   attributed to the helper track under AMPED and to the main loop
   under SPED. *)
let test_disk_attribution_amped () =
  with_mode ~tweak:Test_live.cold_media Server.Amped (fun server port ->
      ignore (get port "/hello.txt");
      let snap =
        await_traces server (has_span ~name:"disk-read" ~track:"helper")
      in
      Alcotest.(check bool) "disk-read on helper track" true
        (has_span ~name:"disk-read" ~track:"helper" snap);
      Alcotest.(check bool) "helper queue wait recorded" true
        (has_span ~name:"helper-queue" ~track:"helper" snap);
      Alcotest.(check bool) "no main-loop disk-read" false
        (has_span ~name:"disk-read" ~track:"main-loop" snap))

let test_disk_attribution_sped () =
  with_mode Server.Sped (fun server port ->
      ignore (get port "/hello.txt");
      let snap =
        await_traces server (has_span ~name:"disk-read" ~track:"main-loop")
      in
      Alcotest.(check bool) "disk-read inline on the main loop" true
        (has_span ~name:"disk-read" ~track:"main-loop" snap);
      Alcotest.(check bool) "no helper track" false
        (has_span ~name:"disk-read" ~track:"helper" snap))

(* The paper's residency test, live.  The docroot was just written, so
   its pages are resident: AMPED serves the miss in the loop pass that
   parsed it, under a map span on the loop's track, with no helper job.
   With the cold-media seam set the same miss goes to a helper.  Both
   answers carry SPED's bytes. *)
let test_resident_miss_on_loop () =
  let docroot = Test_live.make_docroot () in
  let serve ?(tweak = Fun.id) mode check =
    with_config (tweak { (Server.default_config ~docroot) with Server.mode })
      (fun server port ->
        let r = Helpers.Raw.request ~port "/hello.txt" in
        Alcotest.(check int) "200" 200 r.Helpers.Raw.status;
        check server;
        Helpers.Raw.mask_dates r.Helpers.Raw.raw)
  in
  let jobs server = (Server.stats server).Server.helper_jobs in
  let resident =
    serve Server.Amped (fun server ->
        let on_loop = has_span ~name:"map" ~track:"main-loop" in
        let snap = await_traces server on_loop in
        Alcotest.(check bool) "map span on the loop" true (on_loop snap);
        Alcotest.(check bool) "no helper disk-read" false
          (has_span ~name:"disk-read" ~track:"helper" snap);
        Alcotest.(check int) "no helper job" 0 (jobs server))
  in
  let cold =
    serve ~tweak:Test_live.cold_media Server.Amped (fun server ->
        Alcotest.(check int) "cold media: one helper job" 1 (jobs server))
  in
  let sped = serve Server.Sped ignore in
  Alcotest.(check string) "resident miss: SPED's bytes" sped resident;
  Alcotest.(check string) "cold miss: SPED's bytes" sped cold

(* MP: the child runs the request and stores the finished trace in its
   row of the shared ring, and the parent's view shows it on an mp-child
   track. *)
let test_mp_stitching () =
  with_mode (Server.Mp 2) (fun server port ->
      ignore (get port "/hello.txt");
      let on_child_track (d : Trace.trace_data) =
        List.exists
          (fun (s : Trace.span_data) ->
            String.length s.Trace.track >= 9
            && String.sub s.Trace.track 0 9 = "mp-child-")
          d.Trace.spans
      in
      let snap = await_traces server (List.exists on_child_track) in
      Alcotest.(check bool) "child trace stitched into parent ring" true
        (List.exists on_child_track snap);
      let d = List.find on_child_track snap in
      Alcotest.(check string) "request label crossed the pipe"
        "GET /hello.txt" d.Trace.label)

(* The parse spans of the requests labelled [label] in a /server-trace
   body, as (trace id, track pid) pairs, one per trace. *)
let parse_spans body label =
  let evs =
    match Test_status.member "traceEvents" (Test_status.parse_json body) with
    | Test_status.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let arg k e = Test_status.member k (Test_status.member "args" e) in
  List.filter_map
    (fun e ->
      if
        Test_status.member "ph" e = Test_status.Str "X"
        && Test_status.to_str (Test_status.member "name" e) = "parse"
        && Test_status.to_str (arg "label" e) = label
      then
        Some
          ( Test_status.to_int (arg "trace" e),
            Test_status.to_int (Test_status.member "pid" e) )
      else None)
    evs
  |> List.sort_uniq compare

(* MP serves every child's traces whichever child takes the request.  A
   keep-alive session pins one child, so the fresh connections go to the
   other; after N requests, /server-trace over HTTP holds all N on both
   children's tracks, and /metrics counts N completed. *)
let test_mp_trace_union () =
  with_mode (Server.Mp 2) (fun server port ->
      let n = 12 in
      let is_hello (d : Trace.trace_data) = d.Trace.label = "GET /hello.txt" in
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      ignore (Client.Session.request session "/hello.txt");
      for _ = 2 to n do
        Alcotest.(check int) "GET ok" 200 (get port "/hello.txt").Client.status
      done;
      ignore
        (await_traces server (fun snap ->
             List.length (List.filter is_hello snap) >= n));
      let families =
        Test_metrics.validate_families (get port "/metrics").Client.body
      in
      let r = get port "/server-trace" in
      Client.Session.close session;
      Alcotest.(check (float 0.))
        "flash_traces_completed_total" (float_of_int n)
        (Test_metrics.series_value families "flash_traces_completed_total");
      let parses = parse_spans r.Client.body "GET /hello.txt" in
      Alcotest.(check int) "every request's trace served" n
        (List.length parses);
      Alcotest.(check int) "on both children's tracks" 2
        (List.length (List.sort_uniq compare (List.map snd parses))))

let test_mt_track () =
  with_mode (Server.Mt 2) (fun server port ->
      ignore (get port "/hello.txt");
      let on_worker (d : Trace.trace_data) =
        List.exists
          (fun (s : Trace.span_data) ->
            String.length s.Trace.track >= 10
            && String.sub s.Trace.track 0 10 = "mt-worker-")
          d.Trace.spans
      in
      let snap = await_traces server (List.exists on_worker) in
      Alcotest.(check bool) "spans on an mt-worker track" true
        (List.exists on_worker snap))

(* Second request on a persistent connection starts with a
   keepalive-reuse marker instead of accept. *)
let test_keepalive_reuse_span () =
  with_mode Server.Amped (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      ignore (Client.Session.request session "/hello.txt");
      ignore (Client.Session.request session "/index.html");
      Client.Session.close session;
      let snap =
        await_traces server (fun snap -> List.length snap >= 2)
      in
      Alcotest.(check bool) "first request accepted" true
        (has_span ~name:"accept" ~track:"main-loop" snap);
      Alcotest.(check bool) "second request reuses" true
        (has_span ~name:"keepalive-reuse" ~track:"main-loop" snap))

(* Tracing disabled: no collector, the trace path falls through to the
   docroot (404 here), and the snapshot stays empty. *)
let test_trace_disabled () =
  with_mode ~tweak:(fun c -> { c with Server.trace = false }) Server.Amped
    (fun server port ->
      Alcotest.(check bool) "tracing off" false (Server.tracing_enabled server);
      ignore (get port "/hello.txt");
      let r = get port "/server-trace" in
      Alcotest.(check int) "trace path is a plain 404" 404 r.Client.status;
      Alcotest.(check int) "no traces collected" 0
        (List.length (Server.trace_snapshot server)))

(* The ring bound holds under live traffic too. *)
let test_live_ring_capacity () =
  with_mode ~tweak:(fun c -> { c with Server.trace_capacity = 3 }) Server.Amped
    (fun server port ->
      for _ = 1 to 7 do
        ignore (get port "/hello.txt")
      done;
      let snap = await_traces server (fun snap -> List.length snap >= 3) in
      Alcotest.(check int) "ring capped" 3 (List.length snap))

(* Requests over the slow threshold get their span breakdown appended
   to the slow-request log. *)
let test_slow_request_log () =
  let log = Filename.temp_file "flash_slow" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_mode
        ~tweak:(fun c ->
          {
            c with
            Server.slow_request_ms = Some 0.0;
            slow_request_log = Some log;
          })
        Server.Sped
        (fun server port ->
          ignore (get port "/hello.txt");
          ignore (await_traces server (fun snap -> List.length snap >= 1));
          let rec await tries =
            let ic = open_in log in
            let len = in_channel_length ic in
            let contents = really_input_string ic len in
            close_in ic;
            if Helpers.contains ~affix:"/hello.txt" contents || tries = 0 then
              contents
            else begin
              Thread.delay 0.05;
              await (tries - 1)
            end
          in
          let contents = await 40 in
          Alcotest.(check bool) "request logged as slow" true
            (Helpers.contains ~affix:"GET /hello.txt" contents);
          Alcotest.(check bool) "breakdown includes parse span" true
            (Helpers.contains ~affix:"parse" contents);
          Alcotest.(check bool) "breakdown includes the track" true
            (Helpers.contains ~affix:"main-loop" contents)))

(* --access-log-timing appends service time in microseconds after the
   CLF fields. *)
let test_access_log_timing () =
  let log = Filename.temp_file "flash_access" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_mode
        ~tweak:(fun c ->
          {
            c with
            Server.access_log = Some log;
            access_log_timing = true;
          })
        Server.Amped
        (fun server port ->
          ignore (get port "/hello.txt");
          ignore (await_traces server (fun snap -> List.length snap >= 1)));
      let ic = open_in log in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "CLF prefix intact" true
        (Helpers.contains ~affix:"\"GET /hello.txt HTTP/1.1\" 200" line);
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail "no timing field"
      | Some i -> (
          let last = String.sub line (i + 1) (String.length line - i - 1) in
          match int_of_string_opt last with
          | Some us -> Alcotest.(check bool) "microseconds >= 0" true (us >= 0)
          | None -> Alcotest.failf "timing field %S is not an integer" last))

(* /server-status: the JSON is produced by the real escaper (hostile
   server_name survives parsing) and reports the trace ring. *)
let test_status_json_trace_block () =
  let name = "fla\"sh\\test" in
  with_mode
    ~tweak:(fun c -> { c with Server.server_name = name })
    Server.Amped
    (fun server port ->
      ignore (get port "/hello.txt");
      ignore (await_traces server (fun snap -> List.length snap >= 1));
      let r = get port "/server-status?json" in
      Alcotest.(check int) "status 200" 200 r.Client.status;
      let j = Test_status.parse_json r.Client.body in
      Alcotest.(check string) "server name escaped and round-tripped" name
        (Test_status.to_str (Test_status.member "server" j));
      let trace = Test_status.member "trace" j in
      Alcotest.(check bool) "trace enabled" true
        (Test_status.member "enabled" trace = Test_status.Bool true);
      Alcotest.(check bool) "completed counted" true
        (Test_status.to_int (Test_status.member "completed" trace) >= 1);
      Alcotest.(check int) "capacity reported"
        (Server.default_config ~docroot:"/" ).Server.trace_capacity
        (Test_status.to_int (Test_status.member "capacity" trace)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ring_capacity;
    QCheck_alcotest.to_alcotest prop_span_bound;
    QCheck_alcotest.to_alcotest prop_well_formed;
    QCheck_alcotest.to_alcotest prop_binary_roundtrip;
    Alcotest.test_case "end_span closes open children" `Quick
      test_end_closes_children;
    Alcotest.test_case "of_binary rejects garbage" `Quick test_of_binary_garbage;
    Alcotest.test_case "chrome JSON round-trips hostile labels" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "chrome JSON of empty ring" `Quick test_chrome_json_empty;
    Alcotest.test_case "slow-request summary line" `Quick test_summary;
    Alcotest.test_case "/server-trace (AMPED)" `Quick
      (test_trace_endpoint Server.Amped);
    Alcotest.test_case "/server-trace (SPED)" `Quick
      (test_trace_endpoint Server.Sped);
    Alcotest.test_case "/server-trace (MT)" `Quick
      (test_trace_endpoint (Server.Mt 2));
    Alcotest.test_case "/server-trace (MP)" `Quick
      (test_trace_endpoint (Server.Mp 2));
    Alcotest.test_case "AMPED cold read runs on the helper track" `Quick
      test_disk_attribution_amped;
    Alcotest.test_case "AMPED resident miss runs on the loop" `Quick
      test_resident_miss_on_loop;
    Alcotest.test_case "SPED cold read stalls the main loop" `Quick
      test_disk_attribution_sped;
    Alcotest.test_case "MP child traces stitch over the stats pipe" `Quick
      test_mp_stitching;
    Alcotest.test_case "MP /server-trace holds every child's traces" `Quick
      test_mp_trace_union;
    Alcotest.test_case "MT spans carry worker tracks" `Quick test_mt_track;
    Alcotest.test_case "trace ring keeps each row's newest" `Quick
      test_ring_wraps;
    Alcotest.test_case "trace ring truncates an oversized record" `Quick
      test_ring_truncates;
    Alcotest.test_case "trace ring skips a torn slot" `Quick
      test_ring_skips_torn;
    Alcotest.test_case "keep-alive reuse marker" `Quick
      test_keepalive_reuse_span;
    Alcotest.test_case "tracing disabled" `Quick test_trace_disabled;
    Alcotest.test_case "live ring capacity" `Quick test_live_ring_capacity;
    Alcotest.test_case "slow-request log" `Quick test_slow_request_log;
    Alcotest.test_case "access-log timing field" `Quick test_access_log_timing;
    Alcotest.test_case "status JSON trace block and escaping" `Quick
      test_status_json_trace_block;
  ]
