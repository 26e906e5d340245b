(* Bechamel microbenchmarks of the request-path primitives (not a paper
   figure; supporting data for the cost model in Os_profile). *)

open Bechamel
open Toolkit

let request_buf =
  "GET /d0_3/d1_3/f001234.html HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: loadgen\r\nConnection: keep-alive\r\n\r\n"

let bench_parse =
  Test.make ~name:"http.request.parse"
    (Staged.stage (fun () -> ignore (Http.Request.parse request_buf)))

let bench_header_aligned =
  Test.make ~name:"http.response.header(align=32)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header ~status:Http.Status.Ok
              ~content_type:"text/html" ~content_length:8192 ~align:32 ())))

let bench_header_unaligned =
  Test.make ~name:"http.response.header(raw)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header ~status:Http.Status.Ok
              ~content_type:"text/html" ~content_length:8192 ())))

(* The cache-entry shape: both connection variants with Date and
   Last-Modified, as a Flash-cache miss renders them (twice per entry,
   200 and 304). *)
let bench_header_entry =
  Test.make ~name:"http.response.header_pair(entry)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header_pair ~status:Http.Status.Ok
              ~date:1_700_000_000.5 ~last_modified:1_600_000_000.
              ~content_type:"text/html" ~content_length:8192
              ~extra:
                [ ("ETag", "\"5f5e1000-2000\""); ("Accept-Ranges", "bytes") ]
              ~align:32 ())))

(* AMPED's residency gate on a miss: one mincore over a 64 KB mapping of
   a file this process just wrote (so its pages are resident). *)
let bench_resident =
  let path = Filename.temp_file "flash-micro" ".bin" in
  let oc = open_out_bin path in
  output_string oc (String.make 65536 'r');
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let map =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| 65536 |])
  in
  Unix.close fd;
  Sys.remove path;
  Test.make ~name:"iovec.resident(64KB)"
    (Staged.stage (fun () -> ignore (Iovec.resident map)))

let bench_lru =
  let lru =
    Flash_cache.Store.create ~policy:Flash_cache.Policy.Lru ~capacity:1024 ()
  in
  for i = 0 to 1023 do
    ignore (Flash_cache.Store.add lru i i ~weight:1)
  done;
  let counter = ref 0 in
  Test.make ~name:"lru.find+add"
    (Staged.stage (fun () ->
         incr counter;
         let k = !counter land 2047 in
         ignore (Flash_cache.Store.find lru k);
         ignore (Flash_cache.Store.add lru k k ~weight:1)))

let bench_zipf =
  let zipf = Workload.Zipf.create ~n:10_000 ~alpha:1.0 in
  let rng = Sim.Rng.create ~seed:99 in
  Test.make ~name:"zipf.sample"
    (Staged.stage (fun () -> ignore (Workload.Zipf.sample zipf rng)))

let bench_buffer_cache =
  let memory =
    Simos.Memory.create ~total_bytes:(1024 * 8192) ~min_cache_bytes:8192
  in
  let cache = Simos.Buffer_cache.create ~memory ~page_size:8192 in
  let counter = ref 0 in
  Test.make ~name:"buffer_cache.touch"
    (Staged.stage (fun () ->
         incr counter;
         ignore
           (Simos.Buffer_cache.touch cache
              (Simos.Buffer_cache.File_page
                 { inode = 1; page = !counter land 2047 }))))

let bench_normalize =
  Test.make ~name:"request.normalize_path"
    (Staged.stage (fun () ->
         ignore (Http.Request.normalize_path "/a/b/../c/./d/page.html")))

(* Timer wheel under steady-state churn: one schedule + one advance per
   run against a wheel already carrying 1k pending timers — the shape
   the live server's idle timers produce. *)
let bench_timer_wheel =
  let wheel = Evio.Timer_wheel.create ~now:0. () in
  let now = ref 0. in
  for i = 0 to 999 do
    ignore (Evio.Timer_wheel.schedule wheel ~at:(float_of_int i /. 100.) i)
  done;
  Test.make ~name:"evio.timer_wheel.schedule+advance"
    (Staged.stage (fun () ->
         now := !now +. 0.001;
         ignore (Evio.Timer_wheel.schedule wheel ~at:(!now +. 10.) 0);
         ignore (Evio.Timer_wheel.advance wheel ~now:!now)))

(* One response's accounting in the live server — the tally's status
   class add plus latency record, on a private row and on a row of an
   MP-style shared mapping — beside a plain Obs.Histogram.record on the
   same ladder.  Latencies cycle over 1 µs..1 ms. *)
let latency_of n = float_of_int ((n land 1023) + 1) *. 1e-6

let bench_histogram_record =
  let h = Obs.Histogram.create () in
  let counter = ref 0 in
  Test.make ~name:"obs.histogram.record"
    (Staged.stage (fun () ->
         incr counter;
         Obs.Histogram.record h (latency_of !counter)))

let bench_tally ~shared =
  let module Tally = Flash_live.Tally in
  let tally = Tally.create ~shared ~rows:2 () in
  Tally.claim tally 1;
  let counter = ref 0 in
  Test.make
    ~name:
      (if shared then "tally.add+record_latency(shared)"
       else "tally.add+record_latency")
    (Staged.stage (fun () ->
         incr counter;
         Tally.add tally (Tally.status_class 0) 1;
         Tally.record_latency tally (latency_of !counter)))

let tests =
  Test.make_grouped ~name:"micro"
    [
      bench_parse;
      bench_header_aligned;
      bench_header_unaligned;
      bench_header_entry;
      bench_resident;
      bench_lru;
      bench_zipf;
      bench_buffer_cache;
      bench_normalize;
      bench_timer_wheel;
      bench_histogram_record;
      bench_tally ~shared:false;
      bench_tally ~shared:true;
    ]

let run () =
  (* The figure sims leave a large heap behind; compact so GC noise does
     not pollute the measurements when running after them. *)
  Gc.compact ();
  Format.printf
    "@.============================================================@.";
  Format.printf "Microbenchmarks (Bechamel; ns/run via OLS on monotonic clock)@.";
  Format.printf
    "============================================================@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "%-40s %12s@." "benchmark" "ns/run";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-40s %12.1f@." name est
      | Some _ | None -> Format.printf "%-40s %12s@." name "n/a")
    rows
