(* Per-layer costs of one workload, outside in.

   Replays the workload's seeded request stream in process through each
   layer's public functions, in the order the AMPED request path calls
   them: Http.Request.parse, File_cache.find_trusted, on a miss
   Helper.dispatch/drain + File_cache.map_body + File_cache.insert,
   Conditional/Range planning, Sendq + Iovec.writev into a socketpair,
   one Evio.Backend.wait, Obs.Histogram.record and the request's
   Obs.Trace spans.  Each call is wrapped in a span of the harness's own
   (name, start, stop, parent span, request id), kept in memory and
   written to --spans when the run ends.  A span's self time is its
   duration minus its children's, less the measured cost of taking a
   span.

   Prints one JSON object: per layer the number of calls and mean self
   time, the sum of the CPU-doing layers per request, and the median
   Server.start time for the workload's mode.

   Usage: layers.exe --inputs DIR --mode amped|mp:N --requests N --fds K
            [--spans FILE] *)

external now_ns : unit -> int = "ly_now_ns" [@@noalloc]

(* ---------------------------------------------------------------- *)
(* Spans                                                              *)
(* ---------------------------------------------------------------- *)

let names =
  [|
    "request";
    "http.parse";
    "file_cache.lookup";
    "helper.queue_wait";
    "helper.disk";
    "helper.notify";
    "file_cache.map";
    "file_cache.insert";
    "http.plan";
    "send.queue";
    "send.writev";
    "evio.wait";
    "obs.record";
    "obs.span";
    "obs.trace";
  |]

let id name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let s_request = id "request"
let s_parse = id "http.parse"
let s_lookup = id "file_cache.lookup"
let s_qwait = id "helper.queue_wait"
let s_disk = id "helper.disk"
let s_notify = id "helper.notify"
let s_map = id "file_cache.map"
let s_insert = id "file_cache.insert"
let s_plan = id "http.plan"
let s_queue = id "send.queue"
let s_writev = id "send.writev"
let s_wait = id "evio.wait"
let s_record = id "obs.record"
let s_span = id "obs.span"
let s_trace = id "obs.trace"

(* Waiting, not work: left out of the per-request layer sum. *)
let is_wait n = n = s_request || n = s_qwait || n = s_notify

type spans = {
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

let sp =
  let n = 1 lsl 16 in
  {
    len = 0;
    name = Array.make n 0;
    start = Array.make n 0;
    stop = Array.make n 0;
    parent = Array.make n 0;
    req = Array.make n 0;
  }

let grow () =
  let n = 2 * Array.length sp.name in
  let ext a = Array.append a (Array.make (n - Array.length a) 0) in
  sp.name <- ext sp.name;
  sp.start <- ext sp.start;
  sp.stop <- ext sp.stop;
  sp.parent <- ext sp.parent;
  sp.req <- ext sp.req

let add name ~parent ~req ~start ~stop =
  if sp.len = Array.length sp.name then grow ();
  let i = sp.len in
  sp.len <- i + 1;
  sp.name.(i) <- name;
  sp.parent.(i) <- parent;
  sp.req.(i) <- req;
  sp.start.(i) <- start;
  sp.stop.(i) <- stop;
  i

let open_span name ~parent ~req =
  let i = add name ~parent ~req ~start:0 ~stop:0 in
  sp.start.(i) <- now_ns ();
  i

let close_span i = sp.stop.(i) <- now_ns ()

(* [timed name ~parent ~req f] runs [f] inside a span. *)
let timed name ~parent ~req f =
  let i = open_span name ~parent ~req in
  let r = f () in
  close_span i;
  r

(* ---------------------------------------------------------------- *)
(* The replay                                                         *)
(* ---------------------------------------------------------------- *)

let entry_of ~full ~body ~mapped ~mtime ~size =
  let etag = Http.Etag.make ~mtime ~size () in
  let extra = [ ("Vary", "Accept-Encoding") ] in
  let hk, hc =
    Http.Response.header_pair ~status:Http.Status.Ok ~date:(Unix.gettimeofday ())
      ~last_modified:mtime ~content_type:(Http.Mime.of_path full)
      ~content_length:size
      ~extra:([ ("ETag", etag); ("Accept-Ranges", "bytes") ] @ extra)
      ~align:32 ()
  in
  let nk, nc =
    Http.Response.header_pair ~status:Http.Status.Not_modified
      ~date:(Unix.gettimeofday ()) ~last_modified:mtime
      ~extra:(("ETag", etag) :: extra) ~align:32 ()
  in
  {
    Flash_live.File_cache.body;
    mapped;
    mtime;
    size;
    etag;
    encoding = None;
    header_keep = Iovec.of_string hk;
    header_close = Iovec.of_string hc;
    header_304_keep = Iovec.of_string nk;
    header_304_close = Iovec.of_string nc;
  }

(* The server's miss path after the helper's stat: open, map, close. *)
let map_file full ~size =
  let fd = Unix.openfile full [ Unix.O_RDONLY ] 0 in
  let body = Flash_live.File_cache.map_body fd ~size in
  Unix.close fd;
  body

let drain_peer peer buf =
  let rec go () =
    match Unix.read peer buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let server_start_ms ~docroot ~mode =
  let config = { (Flash_live.Server.default_config ~docroot) with port = 0; mode } in
  median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         let s = Flash_live.Server.start config in
         let dt = float_of_int (now_ns () - t0) /. 1e6 in
         Flash_live.Server.stop s;
         dt))

let () =
  let dir = ref "" and mode = ref "amped" and requests = ref 20000 and fds = ref 4 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--inputs", Arg.Set_string dir, "DIR workload inputs (mkinput output)");
      ("--mode", Arg.Set_string mode, "MODE server mode of the workload");
      ("--requests", Arg.Set_int requests, "N requests to replay");
      ("--fds", Arg.Set_int fds, "K descriptors the server's loop watches");
      ("--spans", Arg.Set_string spans_out, "FILE write every span here");
    ]
    (fun a -> raise (Arg.Bad a))
    "layers.exe --inputs DIR --mode MODE --requests N --fds K";
  let inp = Bench_inputs.load !dir in
  let docroot = Bench_inputs.docroot !dir in
  let server_mode, http10 =
    match !mode with
    | "amped" -> (Flash_live.Server.Amped, false)
    | m when String.length m > 3 && String.sub m 0 3 = "mp:" ->
        (Flash_live.Server.Mp (int_of_string (String.sub m 3 (String.length m - 3))), true)
    | m -> failwith ("unsupported mode " ^ m)
  in
  (* before any thread exists: MP's start forks *)
  let start_ms = server_start_ms ~docroot ~mode:server_mode in
  let clock () = float_of_int (now_ns ()) /. 1e9 in
  (* the server's defaults, which flash_serve's command line repeats *)
  let defaults = Flash_live.Server.default_config ~docroot in
  let cache =
    Flash_live.File_cache.create ~capacity_bytes:defaults.Flash_live.Server.file_cache_bytes ()
  in
  let helper = Flash_live.Helper.create ~clock ~helpers:defaults.helpers () in
  let full f = docroot ^ inp.urls.(f) in
  (* warm-up, untimed: the hot set, as the load generator's pass does *)
  Array.iter
    (fun f ->
      let full = full f and size = inp.sizes.(f) in
      let body, mapped = map_file full ~size in
      let mtime = (Unix.stat full).Unix.st_mtime in
      Flash_live.File_cache.insert cache full (entry_of ~full ~body ~mapped ~mtime ~size))
    inp.hot;
  let etags =
    Array.init (Array.length inp.urls) (fun f ->
        match Flash_live.File_cache.find_trusted cache (full f) with
        | Some e -> e.Flash_live.File_cache.etag
        | None -> "\"none\"")
  in
  let n = min !requests (Array.length inp.plan_file) in
  let reqs =
    Array.init n (fun i ->
        let f = inp.plan_file.(i) in
        Bench_inputs.request ~http10 ~etag:etags.(f) inp.urls.(f) inp.plan_kind.(i))
  in
  (* socketpair for writev; pipes for the readiness wait *)
  let out_fd, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock out_fd;
  Unix.set_nonblock peer;
  let drain_buf = Bytes.create (1 lsl 20) in
  let backend = Evio.Backend.create Evio.Select in
  let pipes = List.init (max 1 !fds) (fun _ -> Unix.pipe ()) in
  List.iter (fun (r, _) -> Evio.Backend.register backend r ~read:true ~write:false) pipes;
  (let _, w = List.hd pipes in
   ignore (Unix.write_substring w "x" 0 1));
  let hist = Obs.Histogram.create () in
  let tracer = Obs.Trace.create ~clock () in
  let sendq = Flash_live.Sendq.create () in
  (* The AMPED miss path: helper stat + read, then map and insert. *)
  let misses = ref 0 in
  let miss ~root ~req full ~size =
    if req >= 0 then incr misses;
    ignore (Flash_live.Helper.dispatch helper ~key:req ~path:full);
    let rec await () =
      ignore (Unix.select [ Flash_live.Helper.notify_fd helper ] [] [] (-1.));
      let seen = now_ns () in
      match Flash_live.Helper.drain helper with [] -> await () | c :: _ -> (c, seen)
    in
    let c, seen = await () in
    let ns x = int_of_float (x *. 1e9) in
    let open Flash_live.Helper in
    ignore (add s_qwait ~parent:root ~req ~start:(ns c.enqueued) ~stop:(ns c.started));
    ignore (add s_disk ~parent:root ~req ~start:(ns c.started) ~stop:(ns c.finished));
    ignore (add s_notify ~parent:root ~req ~start:(ns c.finished) ~stop:seen);
    let mtime =
      match c.result with
      | Found { mtime; _ } -> mtime
      | Missing -> failwith ("helper did not find " ^ full)
    in
    let body, mapped = timed s_map ~parent:root ~req (fun () -> map_file full ~size) in
    let e = entry_of ~full ~body ~mapped ~mtime ~size in
    timed s_insert ~parent:root ~req (fun () -> Flash_live.File_cache.insert cache full e);
    e
  in
  (* cost of an empty span, subtracted from every span's self time *)
  let overhead =
    let k = 20000 in
    let t0 = sp.len in
    for _ = 1 to k do
      close_span (open_span s_request ~parent:(-1) ~req:(-1))
    done;
    let tot = ref 0 in
    for i = t0 to sp.len - 1 do
      tot := !tot + sp.stop.(i) - sp.start.(i)
    done;
    sp.len <- t0;
    !tot / k
  in
  for i = 0 to n - 1 do
    let f = inp.plan_file.(i) in
    let full = full f and size = inp.sizes.(f) in
    let root = open_span s_request ~parent:(-1) ~req:i in
    let req =
      match timed s_parse ~parent:root ~req:i (fun () -> Http.Request.parse reqs.(i)) with
      | Http.Request.Complete (r, _) -> r
      | _ -> failwith "request did not parse"
    in
    let entry =
      match
        timed s_lookup ~parent:root ~req:i (fun () ->
            Flash_live.File_cache.find_trusted cache full)
      with
      | Some e -> e
      | None -> miss ~root ~req:i full ~size
    in
    let plan =
      timed s_plan ~parent:root ~req:i (fun () ->
          let header = Http.Request.header req in
          let etag =
            match Http.Etag.parse entry.Flash_live.File_cache.etag with
            | Some e -> e
            | None -> { Http.Etag.weak = false; opaque = entry.etag }
          in
          let mtime = entry.mtime in
          match Http.Conditional.evaluate ~meth:req.Http.Request.meth ~header ~etag ~mtime with
          | Http.Conditional.Proceed -> (
              match header "range" with
              | Some r when Http.Conditional.if_range_permits ~header ~etag ~mtime -> (
                  match Http.Range.plan r ~size with
                  | Http.Range.Single { off; len } -> `Slice (off, len)
                  | Http.Range.Whole | Http.Range.Unsatisfiable -> `Full)
              | _ -> `Full)
          | Http.Conditional.Not_modified | Http.Conditional.Precondition_failed ->
              `Not_modified)
    in
    let slices =
      match plan with
      | `Full -> [ Iovec.slice entry.header_keep; Iovec.slice entry.body ]
      | `Not_modified -> [ Iovec.slice entry.header_304_keep ]
      | `Slice (off, len) ->
          (* rendered per request, as the server does; not a named layer *)
          let h, _ =
            Http.Response.header_pair ~status:Http.Status.Partial_content
              ~content_length:len
              ~extra:[ ("Content-Range", Http.Range.content_range ~off ~len ~size) ]
              ()
          in
          [ Iovec.slice (Iovec.of_string h); Iovec.slice ~off ~len entry.body ]
    in
    let q = open_span s_queue ~parent:root ~req:i in
    List.iter (Flash_live.Sendq.push_slice sendq) slices;
    close_span q;
    while not (Flash_live.Sendq.is_empty sendq) do
      let g = timed s_queue ~parent:root ~req:i (fun () -> Flash_live.Sendq.gather sendq) in
      let w =
        timed s_writev ~parent:root ~req:i (fun () ->
            try Iovec.writev out_fd g
            with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0)
      in
      timed s_queue ~parent:root ~req:i (fun () -> Flash_live.Sendq.advance sendq w);
      drain_peer peer drain_buf
    done;
    ignore
      (timed s_wait ~parent:root ~req:i (fun () ->
           Evio.Backend.wait backend ~timeout:(Some 0.)));
    timed s_record ~parent:root ~req:i (fun () -> Obs.Histogram.record hist 1e-4);
    let tr = timed s_trace ~parent:root ~req:i (fun () -> Obs.Trace.start tracer ()) in
    for _ = 1 to 2 do
      timed s_span ~parent:root ~req:i (fun () ->
          Obs.Trace.end_span tracer (Obs.Trace.begin_span tracer tr "phase"))
    done;
    timed s_trace ~parent:root ~req:i (fun () -> ignore (Obs.Trace.finish tracer tr));
    close_span root
  done;
  (* A stream without misses still gets per-call costs for the miss
     path: re-fetch the most popular files (request id -1: not part of
     any request, so not in the per-request sum). *)
  if !misses = 0 then
    Array.iter
      (fun f ->
        let full = full f in
        Flash_live.File_cache.remove cache full;
        let root = open_span s_request ~parent:(-1) ~req:(-1) in
        ignore (miss ~root ~req:(-1) full ~size:inp.sizes.(f));
        close_span root)
      (Array.sub inp.hot 0 (min 200 (Array.length inp.hot)));
  Flash_live.Helper.shutdown helper;
  (* self time: duration minus children, less the span overhead *)
  let child = Array.make sp.len 0 in
  for k = 0 to sp.len - 1 do
    let p = sp.parent.(k) in
    if p >= 0 then child.(p) <- child.(p) + sp.stop.(k) - sp.start.(k)
  done;
  let nn = Array.length names in
  (* index 0: spans of the replayed requests; 1: probe spans *)
  let count = Array.make_matrix 2 nn 0 and self = Array.make_matrix 2 nn 0 in
  for k = 0 to sp.len - 1 do
    let nm = sp.name.(k) and src = if sp.req.(k) >= 0 then 0 else 1 in
    count.(src).(nm) <- count.(src).(nm) + 1;
    let raw = sp.stop.(k) - sp.start.(k) - child.(k) in
    let adj = if is_wait nm then raw else max 0 (raw - overhead) in
    self.(src).(nm) <- self.(src).(nm) + adj
  done;
  if !spans_out <> "" then begin
    let oc = open_out !spans_out in
    output_string oc "span\tname\tstart_ns\tstop_ns\tparent\trequest\n";
    for k = 0 to sp.len - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" k names.(sp.name.(k)) sp.start.(k)
        sp.stop.(k) sp.parent.(k) sp.req.(k)
    done;
    close_out oc
  end;
  let sum = ref 0 in
  Array.iteri (fun nm s -> if not (is_wait nm) then sum := !sum + s) self.(0);
  let layers =
    List.init nn (fun nm ->
        let src = if count.(0).(nm) > 0 then 0 else 1 in
        let n = count.(src).(nm) in
        Printf.sprintf "\"%s\": {\"calls\": %d, \"source\": \"%s\", \"mean_ns\": %.1f}"
          names.(nm) n
          (if src = 0 then "stream" else "probe")
          (if n = 0 then 0. else float_of_int self.(src).(nm) /. float_of_int n))
  in
  Printf.printf
    "{%s, \"requests\": %d, \"span_overhead_ns\": %d, \"layer_sum_us_per_req\": %.4f, \
     \"server.start_ms\": %.4f}\n"
    (String.concat ", " layers) n overhead
    (float_of_int !sum /. float_of_int n /. 1e3)
    start_ms
