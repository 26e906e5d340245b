module Guard = Flash_guard.Guard

type mode = Amped | Sped | Mp of int | Mt of int | Sharded of int

type config = {
  docroot : string;
  port : int;
  mode : mode;
  helpers : int;
  file_cache_bytes : int;
  max_cached_file : int;
  enable_cgi : bool;
  align_headers : bool;
  server_name : string;
  idle_timeout : float;
  access_log : string option;  (* Common Log Format file *)
  access_log_timing : bool;  (* append service time (µs) after CLF fields *)
  status_path : string option;  (* built-in status endpoint; None disables *)
  stall_threshold : float;  (* loop iterations longer than this are stalls *)
  clock : unit -> float;  (* injectable for tests *)
  slow_read : (string -> unit) option;  (* cold-media fault injection *)
  trace : bool;  (* record request-lifecycle spans *)
  trace_capacity : int;  (* completed-trace ring size *)
  trace_path : string option;  (* Chrome trace-event endpoint; None disables *)
  slow_request_ms : float option;  (* log traces slower than this *)
  slow_request_log : string option;  (* slow-request log file; None = stderr *)
  use_writev : bool;  (* gather writes via the C stub vs copying fallback *)
  cache_policy : Flash_cache.Policy.kind;  (* file-cache replacement *)
  cache_admission : Flash_cache.Policy.admission;  (* file-cache admission *)
  cache_budget_bytes : int option;
      (* shared byte budget overlaying the file cache's own capacity *)
  event_backend : Evio.kind;  (* readiness mechanism for every loop *)
  gzip_precompressed : bool;  (* serve fresh [.gz] siblings to gzip clients *)
  gzip_lazy : bool;
      (* build stored-block gzip variants inline on demand and cache
         them beside their origin under the same budget *)
  cgi_timeout : float;  (* kill CGI children streaming longer than this *)
  accept_fault : (unit -> bool) option;
      (* test seam: returning true makes the next accept behave as if
         it failed with EMFILE *)
  metrics_path : string option;  (* Prometheus exposition endpoint *)
  latency_slo : (float * float) option;
      (* (quantile, target ms): evaluate an error-budget burn over the
         flight recorder's windows *)
  recorder_capacity : int;  (* flight-recorder ring size, rollups *)
  recorder_interval : float;  (* rollup window length, seconds *)
  force_handoff : bool;
      (* Sharded: skip the SO_REUSEPORT probe and use the acceptor
         domain + hand-off ring, so tests and benches exercise the
         fallback on platforms that would never take it. *)
  guard : Guard.config;
      (* admission control and load shedding; Guard.default_config is
         fully inert and skips all guard plumbing *)
  access_log_paths : bool;
      (* append the resolved filesystem path after the CLF status/bytes
         fields, making the log machine-minable (pcache's %>s %O %f) *)
  warm : bool;  (* predictive cache warming; false skips all plumbing *)
  warm_interval : float;  (* seconds between mining cycles *)
  warm_budget : float;  (* pinned hot tier <= this fraction of the cache *)
  warm_top_k : int;  (* candidates considered per cycle *)
  warm_log : string option;
      (* access log mined once at startup, so a restarted server warms
         from the previous run's traffic before the first request *)
}

let default_config ~docroot =
  {
    docroot;
    port = 0;
    mode = Amped;
    helpers = 4;
    file_cache_bytes = 32 * 1024 * 1024;
    max_cached_file = 4 * 1024 * 1024;
    enable_cgi = true;
    align_headers = true;
    server_name = Http.Response.default_server;
    idle_timeout = 30.;
    access_log = None;
    access_log_timing = false;
    status_path = Some "/server-status";
    stall_threshold = 0.05;
    clock = Unix.gettimeofday;
    slow_read = None;
    trace = true;
    trace_capacity = 256;
    trace_path = Some "/server-trace";
    slow_request_ms = None;
    slow_request_log = None;
    use_writev = Iovec.have_writev;
    cache_policy = Flash_cache.Policy.Lru;
    cache_admission = Flash_cache.Policy.Admit_always;
    cache_budget_bytes = None;
    (* select is the paper-faithful default; poll/epoll are opt-in
       (or via "auto"). *)
    event_backend = Evio.Select;
    gzip_precompressed = true;
    gzip_lazy = false;
    cgi_timeout = 300.;
    accept_fault = None;
    metrics_path = Some "/metrics";
    latency_slo = None;
    recorder_capacity = 120;
    recorder_interval = 1.0;
    force_handoff = false;
    guard = Guard.default_config;
    access_log_paths = false;
    warm = false;
    warm_interval = 5.;
    warm_budget = 0.25;
    warm_top_k = 64;
    warm_log = None;
  }

type stats = {
  requests : int;
  connections : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  helper_jobs : int;
  cache_evictions : int;
  helper_queue_depth : int;
  active_connections : int;
  loop_stalls : int;
  loop_max_stall : float;
  writev_calls : int;
  write_calls : int;
  bytes_copied : int;
  mapped_bytes : int;
  event_backend : string;
  loop_wakeups : int;
  timer_fires : int;
  accept_emfile : int;
}

type conn_state =
  | Reading
  | Waiting_helper of Http.Request.t * string  (* request, full path *)
  | Streaming_cgi of Unix.file_descr * int  (* pipe fd, child pid *)

type conn = {
  fd : Unix.file_descr;
  key : int;
  peer : string;  (* peer address (no port): the guard's ledger key *)
  mutable inbuf : string;
  scratch : Bytes.t;  (* the serving loop's or worker's read scratch *)
  outq : Sendq.t;
  mutable state : conn_state;
  mutable close_after_flush : bool;
  mutable last_active : float;
  mutable req_start : float;  (* parse-complete time of the request in flight *)
  mutable alive : bool;
  accepted_at : float;
  mutable reqs_served : int;  (* finished traces on this connection *)
  track : string;  (* trace track of the loop or worker serving it *)
  (* Readiness interest last pushed to the evio backend (event-loop
     modes); [sync_conn] diffs against these so unchanged fds cost
     nothing. *)
  mutable want_read : bool;
  mutable want_write : bool;
  mutable registered : bool;
  mutable cgi_fd_registered : Unix.file_descr option;
  (* Timer-wheel entries owned by this connection. *)
  mutable idle_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable cgi_timer : timer_ev Evio.Timer_wheel.timer option;
  (* Guard state: the header deadline runs from the first byte of a
     request head to parse completion (the idle timer resets on every
     byte, which is exactly what a slowloris exploits; this one does
     not).  The transfer check compares [sent_bytes] against the mark
     it left last time it fired. *)
  mutable hdr_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable xfer_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable sent_bytes : int;  (* response bytes the kernel accepted *)
  mutable recv_bytes : int;  (* request bytes read off the socket *)
  mutable xfer_mark : int;  (* sent+recv at the last transfer check *)
  (* Tracing state for the request in flight (all None with --no-trace). *)
  mutable trace : Obs.Trace.trace option;
  mutable parse_span : Obs.Trace.span option;
  mutable work_span : Obs.Trace.span option;  (* inline disk read / CGI *)
  mutable write_span : Obs.Trace.span option;
}

(* What the loop's timer wheel fires. *)
and timer_ev =
  | T_idle of conn  (* keep-alive idle-timeout check *)
  | T_cgi of conn  (* CGI wall-clock deadline *)
  | T_resume_accept  (* re-arm the listen fd after EMFILE backoff *)
  | T_tick  (* close the recorder's window, then the guard sweep *)
  | T_hdr of conn  (* guard: per-request header deadline *)
  | T_xfer of conn  (* guard: minimum-transfer-rate check *)
  | T_warm  (* warming: mine, re-pin the hot tier, issue prefetches *)

(* One accepting loop's EMFILE backoff: the backend and wheel its
   listen interest lives in, whether that interest is parked, and the
   delay before the next re-arm.  The event loop has one, each MP child
   and MT worker its own. *)
type accept_gate = {
  a_evio : Evio.Backend.t;
  a_wheel : timer_ev Evio.Timer_wheel.t;
  mutable paused : bool;
  mutable backoff : float;
}

(* Who a ready file descriptor belongs to. *)
type fd_owner =
  | O_listen
  | O_wake
  | O_helper
  | O_client of conn
  | O_cgi of conn

(* Sharded mode: who this instance is within the shard set.  A shard
   is a full AMPED server (own evio backend, timer wheel, cache,
   helper pool, registry) running its loop on its own domain; the
   coordinator owns the lifecycle and — on platforms without
   SO_REUSEPORT — the single listening socket, handing accepted fds to
   shards over the ring. *)
type role =
  | Standalone
  | Shard_member of { id : int; ring : Unix.file_descr Handoff.t option }
  | Shard_coordinator of { ring : Unix.file_descr Handoff.t option }

(* Predictive-warming state.  [None] unless [config.warm] and the
   instance has a helper pool (AMPED, or a shard member) — the prefetch
   side rides the helpers' low-priority lane, so modes without helpers
   have nothing to warm with.  Touched only from the owning event loop
   (the T_warm handler and completion drain), except the counters,
   which the registry reads. *)
type warm_state = {
  w_miner : Flash_warm.Miner.t;
  w_absorber : Flash_warm.Warm.absorber;
  w_conf : Flash_warm.Warm.config;
  w_pin_budget : int;  (* pinned-tier byte bound (warm_budget * capacity) *)
  mutable w_next_key : int;  (* prefetch job keys: negative, decrementing *)
  w_prefetching : (int, string) Hashtbl.t;  (* in-flight key -> path *)
  (* Paths a prefetch inserted, so later demand hits can be attributed
     to warming.  Bounded: forgetting only loses attribution. *)
  w_warmed : (string, unit) Hashtbl.t;
  w_cycles : Obs.Counter.t;
  w_ranked : Obs.Counter.t;
  w_issued : Obs.Counter.t;
  w_completed : Obs.Counter.t;
  w_failed : Obs.Counter.t;
  w_hits_after : Obs.Counter.t;
}

let warmed_limit = 4096

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  cache : File_cache.t;
  helper : Helper.t option;
  wake_read : Unix.file_descr;
  wake_write : Unix.file_descr;
  (* Event-readiness state for the owning loop (SPED/AMPED main loop;
     the MP parent and MT main thread park on [evio]; MP children and MT
     workers build their own backend instances instead — an epoll fd
     must not be shared across forked interest mutators). *)
  evio : Evio.Backend.t;
  wheel : timer_ev Evio.Timer_wheel.t;
  fd_owners : (Unix.file_descr, fd_owner) Hashtbl.t;
  loopstat : Obs.Loopstat.t;  (* the loop's wait, work and stalls *)
  accept_gate : accept_gate;  (* on [evio] and [wheel] *)
  conns : (int, conn) Hashtbl.t;
  by_helper_key : (int, conn) Hashtbl.t;
  mutable next_key : int;
  mutable stopped : bool;
  mutable loop_thread : Thread.t option;
  mutable children : int list;  (* MP child pids *)
  log_channel : out_channel option;
  (* Requests, connections, responses by class, send-path counts, accept
     sheds, the active/mapped gauges and the latency histogram: one row
     per writer (MP child, or the whole instance), read as row sums.  In
     MP the slab is shared, which is the paper's §4.2 "information
     gathering" done without IPC. *)
  tally : Tally.t;
  (* MP mode with tracing: every child's finished traces, one shared row
     per child, read the way the tally is. *)
  trace_ring : Trace_ring.t option;
  (* MT mode: threads share the cache; systhreads interleave at
     allocation points, so cache access is serialized. *)
  cache_mutex : Mutex.t;
  (* Guards the observability state (the tally row, the tracer) where
     several threads touch it: MT workers, the loop vs snapshot
     callers. *)
  obs_mutex : Mutex.t;
  (* Request-lifecycle tracing (None with --no-trace): guarded by
     [obs_mutex] wherever several threads can touch it (MT workers,
     the loop vs endpoint renders).  An MP child's collector holds only
     the trace in flight; finished ones go to [trace_ring]. *)
  tracer : Obs.Trace.t option;
  slow_channel : out_channel option;  (* slow-request log sink *)
  started_at : float;
  mutable worker_threads : Thread.t list;
  gather_writes : bool;  (* config.use_writev, gated on stub presence *)
  (* The event loop's trace track and its one read scratch, shared by
     every connection it serves: each use ends before the call returns.
     MP children and MT workers make their own in [worker_loop]. *)
  loop_track : string;
  loop_scratch : Bytes.t;
  (* The unified metrics registry: every surface (/server-status text
     and JSON, /metrics exposition, programmatic stats) renders from
     one [Registry.collect] walk over these closures. *)
  registry : Obs.Registry.t;
  (* Flight recorder + SLO evaluator, built before MP forks / MT
     threads, which inherit it.  All recorder access goes through
     [recorder_mutex]: ticks race between MT workers, the main thread,
     status reads and dumps. *)
  recorder : Obs.Recorder.t;
  recorder_mutex : Mutex.t;
  slo : Obs.Slo.t option;
  (* Sharded mode wiring (Standalone otherwise).  [shards] is the full
     shard set, index = shard id, shared by the coordinator and every
     shard so any instance can render the cross-shard views; [coord]
     points every shard back at the coordinator for accept-strategy
     reporting.  Both are fixed right after construction, before any
     domain is spawned. *)
  (* Admission control and shedding.  One instance per server instance
     — per shard in sharded mode, shared by MT workers (it locks
     internally), copy-on-write per MP child.  [None] when the config
     enables nothing, so the unguarded hot path pays no checks. *)
  guard : Guard.t option;
  (* Predictive warming (None when disabled or helperless): miner,
     prefetch bookkeeping and counters — see [warm_state]. *)
  warm : warm_state option;
  mutable cgi_inflight : int;  (* live CGI children (event-loop modes) *)
  role : role;
  mutable shards : t array;
  mutable coord : t option;
  mutable domains : unit Domain.t list;
  accept_strategy : string; (* "reuseport" | "handoff"; "" unsharded *)
  owns_listen : bool; (* does [run_loop] watch + accept on listen_fd *)
  mutable handoff_rr : int; (* round-robin wake cursor, acceptor only *)
  handoff_shed : Obs.Counter.t; (* accepts dropped on a full ring *)
  (* Which lock guards this instance's cache (None = unshared, no lock
     needed): the instance's own [cache_mutex] in MT mode, one mutex
     shared by every shard when a budget spans domains — a foreign
     shard's rebalance may then shed into this cache. *)
  cache_lock : Mutex.t option;
}

let log = Logs.Src.create "flash.live" ~doc:"Flash live server"

module Log = (val Logs.src_log log : Logs.LOG)

let with_cache_lock t f =
  match t.cache_lock with
  | Some m ->
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  | None -> f ()

let with_obs_lock t f =
  Mutex.lock t.obs_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mutex) f

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

(* Every mode counts into this writer's row of the tally, under the obs
   mutex (MT workers share one row). *)
let count t field n = with_obs_lock t (fun () -> Tally.add t.tally field n)

let total t field = Tally.sum t.tally field
let status_class_names = [| "2xx"; "3xx"; "4xx"; "5xx" |]

(* This writer's file-cache counters and gauges, stored whole into its
   row (in MP each child has its own cache).  Caller holds the obs
   lock. *)
let store_cache_counters t =
  let s = File_cache.stats t.cache in
  Tally.set t.tally Tally.cache_hits s.Flash_cache.Store.hits;
  Tally.set t.tally Tally.cache_misses s.Flash_cache.Store.misses;
  Tally.set t.tally Tally.cache_evictions s.Flash_cache.Store.evictions;
  Tally.set t.tally Tally.cache_entries s.Flash_cache.Store.entries;
  Tally.set t.tally Tally.cache_bytes s.Flash_cache.Store.resident;
  Tally.set t.tally Tally.cache_admitted s.Flash_cache.Store.admitted;
  Tally.set t.tally Tally.cache_rejected s.Flash_cache.Store.rejected

(* Every response is counted here, in every mode: its status class
   (2xx/3xx/4xx/5xx), whether it is an error (400 and up) and its
   latency (NaN: not measured).  The cache lookup that served it is
   stored with it. *)
let count_response t ~code ~latency =
  let cls = Stdlib.min 3 (Stdlib.max 0 ((code / 100) - 2)) in
  with_obs_lock t (fun () ->
      Tally.add t.tally (Tally.status_class cls) 1;
      if code >= 400 then Tally.add t.tally Tally.errors 1;
      if not (Float.is_nan latency) then Tally.record_latency t.tally latency;
      store_cache_counters t)

let latency_now t = with_obs_lock t (fun () -> Tally.latency t.tally)

(* A file-cache operation that may map or unmap bodies (insert, evict,
   invalidate): run it under the cache lock, then store the cache's
   mapped bytes and counters into this writer's row. *)
let update_cache t f =
  with_cache_lock t (fun () ->
      let r = f () in
      let m = File_cache.mapped_bytes t.cache in
      with_obs_lock t (fun () ->
          Tally.set t.tally Tally.mapped m;
          store_cache_counters t);
      r)

(* ------------------------------------------------------------------ *)
(* Flight recorder plumbing                                            *)
(* ------------------------------------------------------------------ *)

(* All recorder access is serialised: ticks race between loop timers,
   MT workers, the parked main thread, status reads and dump requests
   (MT workers share one recorder).  The read closure takes [obs_mutex]
   inside; nothing takes [recorder_mutex] while holding it.  Ticks come
   only from where a loop waits — the periodic [T_tick], after each
   worker or parked wait — never from a request. *)
let with_recorder t f = Mutex.protect t.recorder_mutex (fun () -> f t.recorder)

let tick_recorder t = with_recorder t Obs.Recorder.tick

(* The recorder's cumulative snapshot: the same counters the registry
   exposes, read from the parts the instance is built from, so the
   recorder exists before the instance does. *)
let recorder_read ~tally ~obs_mutex ~loopstat ~helper () =
  let total = Tally.sum tally in
  let cum =
    {
      Obs.Recorder.c_requests = total Tally.requests;
      c_bytes = total Tally.bytes_sent;
      c_writev = total Tally.writev_calls;
      c_write = total Tally.write_calls;
      c_copied = total Tally.bytes_copied;
      c_cache_hits = total Tally.cache_hits;
      c_cache_misses = total Tally.cache_misses;
      c_errors = total Tally.errors;
      c_wait = Obs.Loopstat.wait_time loopstat;
      c_work = Obs.Loopstat.work_time loopstat;
      c_latency = Mutex.protect obs_mutex (fun () -> Tally.latency tally);
    }
  in
  let gauges =
    {
      Obs.Recorder.g_active = total Tally.active;
      g_helper_queue =
        (match helper with Some h -> Helper.queue_depth h | None -> 0);
      g_mapped = total Tally.mapped;
    }
  in
  (cum, gauges)

(* ------------------------------------------------------------------ *)
(* Request-lifecycle tracing                                           *)
(* ------------------------------------------------------------------ *)

(* All tracer mutations run under the obs mutex: MT workers share the
   collector, and the endpoint renders it from whichever thread serves
   the request.  [f] must not re-enter a locking helper (the mutex is
   not reentrant). *)
let with_tracer t f =
  match t.tracer with
  | None -> ()
  | Some tracer -> with_obs_lock t (fun () -> f tracer)

(* Open the trace for the next request on this connection as soon as its
   first bytes arrive: the parse span starts here.  The first request's
   trace reaches back to [accept]; later ones mark the keep-alive
   reuse. *)
let ensure_trace t conn =
  with_tracer t (fun tracer ->
      if conn.trace = None then begin
        let track = conn.track in
        let tr =
          if conn.reqs_served = 0 then begin
            let tr = Obs.Trace.start tracer ~at:conn.accepted_at () in
            Obs.Trace.add_span tracer ~track ~name:"accept"
              ~start:conn.accepted_at ~stop:conn.accepted_at tr;
            tr
          end
          else begin
            let tr = Obs.Trace.start tracer () in
            Obs.Trace.instant tracer tr ~track "keepalive-reuse";
            tr
          end
        in
        conn.trace <- Some tr;
        conn.parse_span <- Some (Obs.Trace.begin_span tracer tr ~track "parse")
      end)

let end_parse_span t conn ~label =
  with_tracer t (fun tracer ->
      (match conn.parse_span with
      | Some sp ->
          Obs.Trace.end_span tracer sp;
          conn.parse_span <- None
      | None -> ());
      match conn.trace with
      | Some tr -> Obs.Trace.relabel tr label
      | None -> ())

let begin_work_span t conn name =
  with_tracer t (fun tracer ->
      match conn.trace with
      | Some tr when conn.work_span = None ->
          conn.work_span <-
            Some (Obs.Trace.begin_span tracer tr ~track:conn.track name)
      | _ -> ())

let end_work_span t conn =
  with_tracer t (fun tracer ->
      match conn.work_span with
      | Some sp ->
          Obs.Trace.end_span tracer sp;
          conn.work_span <- None
      | None -> ())

let log_slow t (data : Obs.Trace.trace_data) =
  match t.config.slow_request_ms with
  | None -> ()
  | Some ms ->
      if (data.Obs.Trace.t_end -. data.Obs.Trace.t_begin) *. 1000. >= ms then begin
        let line = Obs.Trace.summary data in
        match t.slow_channel with
        | Some oc ->
            output_string oc (line ^ "\n");
            flush oc
        | None -> prerr_endline line
      end

(* Close the in-flight request's trace: response bytes are out (or the
   connection died).  Pushes it into the ring (an MP child's: its row of
   the shared one) and, past the threshold, into the slow-request log. *)
let finish_request_trace ?(closing = false) t conn =
  match t.tracer with
  | None -> ()
  | Some tracer -> (
      match conn.trace with
      | None -> ()
      | Some tr ->
          let data =
            with_obs_lock t (fun () ->
                (match conn.write_span with
                | Some sp -> Obs.Trace.end_span tracer sp
                | None -> ());
                if closing || conn.close_after_flush then
                  Obs.Trace.instant tracer tr ~track:conn.track "close";
                Obs.Trace.finish tracer tr)
          in
          conn.trace <- None;
          conn.parse_span <- None;
          conn.work_span <- None;
          conn.write_span <- None;
          conn.reqs_served <- conn.reqs_served + 1;
          log_slow t data;
          Option.iter (fun ring -> Trace_ring.push ring data) t.trace_ring)

let log_access ?conn ?path t ~meth ~target ~status ~bytes =
  match t.log_channel with
  | None -> ()
  | Some oc ->
      (* Common Log Format; host is always loopback here.  With
         [access_log_paths], the resolved filesystem path follows the
         status/bytes pair — stable machine-minable fields, like the
         Apache %>s %O %f log pcache mines.  With [access_log_timing],
         the request's service time so far (microseconds, measured from
         its trace start when tracing) is appended last. *)
      let base =
        Printf.sprintf "127.0.0.1 - - [%s] \"%s %s HTTP/1.1\" %d %d"
          (Http.Http_date.format (Unix.gettimeofday ()))
          meth target status bytes
      in
      let base =
        match path with
        | Some p when t.config.access_log_paths -> base ^ " " ^ p
        | _ -> base
      in
      let line =
        if not t.config.access_log_timing then base
        else
          let started =
            match conn with
            | Some c -> (
                match c.trace with
                | Some tr -> Obs.Trace.start_of tr
                | None -> c.req_start)
            | None -> t.config.clock ()
          in
          let us = (t.config.clock () -. started) *. 1e6 in
          Printf.sprintf "%s %d" base (int_of_float (Float.max 0. us))
      in
      output_string oc (line ^ "\n");
      flush oc

(* Every response commits here, once, as it is queued — before its
   last byte can reach the kernel, so a client holding a response never
   sees a scrape that misses it.  (The request itself was counted when
   it parsed, so a scrape counts itself.)  Latency runs from parse
   completion to response generation: for AMPED that spans the helper
   round-trip, for SPED/MP/MT the inline disk work, so the
   architectural difference is visible in the numbers.  This is also
   the tracing seam: the work span (inline disk read, CGI) ends and the
   write span begins. *)
let commit t conn ~code ~keep =
  count_response t ~code ~latency:(t.config.clock () -. conn.req_start);
  end_work_span t conn;
  with_tracer t (fun tracer ->
      match conn.trace with
      | Some tr when conn.write_span = None ->
          conn.write_span <-
            Some (Obs.Trace.begin_span tracer tr ~track:conn.track "write")
      | _ -> ());
  if not keep then conn.close_after_flush <- true;
  conn.state <- Reading

(* ------------------------------------------------------------------ *)
(* Request resolution                                                  *)
(* ------------------------------------------------------------------ *)

let align_of t = if t.config.align_headers then Some 32 else None

(* Map a request target to a path under the docroot; [Error] carries the
   response status. *)
let resolve _t (req : Http.Request.t) =
  match Http.Request.normalize_path req.Http.Request.path with
  | None -> Error Http.Status.Forbidden
  | Some path ->
      let raw = req.Http.Request.path in
      let wants_index =
        path = "/"
        || (String.length raw > 0 && raw.[String.length raw - 1] = '/')
      in
      let path =
        if wants_index then
          (if path = "/" then "" else path) ^ "/index.html"
        else path
      in
      Ok path

let is_cgi path =
  String.length path >= 9 && String.sub path 0 9 = "/cgi-bin/"

(* The status endpoint is matched on the raw request path, before any
   docroot or CGI resolution, so it can never 403, escape, or collide
   with a docroot file of the same name. *)
let is_status_request t (req : Http.Request.t) =
  match t.config.status_path with
  | None -> false
  | Some sp -> String.equal req.Http.Request.path sp

(* Same raw-path matching as the status endpoint.  With tracing off the
   path is not special: it falls through to docroot resolution (and a
   404 on a standard docroot). *)
let is_trace_request t (req : Http.Request.t) =
  match (t.config.trace_path, t.tracer) with
  | Some tp, Some _ -> String.equal req.Http.Request.path tp
  | _ -> false

(* Same raw-path matching as the status endpoint.  In MP whichever
   child accepts the scrape renders the whole server: every child's
   counters are rows of the one shared tally. *)
let is_metrics_request t (req : Http.Request.t) =
  match t.config.metrics_path with
  | None -> false
  | Some mp -> String.equal req.Http.Request.path mp

(* ------------------------------------------------------------------ *)
(* Views: one registry walk feeds every surface                        *)
(* ------------------------------------------------------------------ *)

let mode_string = function
  | Amped -> "amped"
  | Sped -> "sped"
  | Mp n -> Printf.sprintf "mp:%d" n
  | Mt n -> Printf.sprintf "mt:%d" n
  | Sharded n -> Printf.sprintf "sharded:%d" n

(* The text page, the JSON view, /metrics exposition and [stats] all
   read the same [collect_for] result, so they cannot drift.  In MP
   every process renders the whole server: counters and traces are
   rows of the shared tally and trace ring. *)
let shard_peers t =
  match t.role with
  | Standalone -> None
  | Shard_member _ | Shard_coordinator _ ->
      if Array.length t.shards = 0 then None else Some t.shards

(* Every finished trace the server holds: the MP children's shared rows,
   every shard's ring (each read under its own shard's obs mutex), or
   this instance's ring. *)
let trace_snapshot t =
  let own t =
    match t.tracer with
    | None -> []
    | Some tracer -> with_obs_lock t (fun () -> Obs.Trace.snapshot tracer)
  in
  match (t.trace_ring, shard_peers t) with
  | Some ring, _ -> Trace_ring.snapshot ring
  | None, Some shards -> List.concat_map own (Array.to_list shards)
  | None, None -> own t

let trace_body t = Obs.Trace.to_chrome_json (trace_snapshot t)

(* Gauges that are not additive across shards: aggregate with max. *)
let gauge_max_name = function
  | "flash_uptime_seconds" | "flash_slo_state" | "flash_slo_burn_ratio"
  | "flash_slo_windows" | "flash_guard_state" | "flash_loop_max_stall_seconds"
  | "flash_helper_queue_depth_hwm" ->
      true
  | _ -> false

(* The sample lists feeding this instance's render surfaces:
   [(summary, all)].  Unsharded both are this registry's walk.  Sharded
   instances concatenate every shard's walk and prepend the
   summed-at-snapshot aggregate (shard label stripped — the sum MP's
   shared tally does over its rows, done here at collect time):
   [summary] is the aggregate alone, for the status page's named
   fields and [stats]; [all] additionally carries every per-shard
   series for /metrics and the metrics listing. *)
let collect_for t =
  match shard_peers t with
  | None ->
      let samples = Obs.Registry.collect t.registry in
      (samples, samples)
  | Some shards ->
      let per_shard =
        List.concat_map
          (fun sh -> Obs.Registry.collect sh.registry)
          (Array.to_list shards)
      in
      let agg =
        Obs.Registry.aggregate ~gauge_max:gauge_max_name ~drop:"shard"
          per_shard
      in
      (agg, Obs.Registry.sort_samples (agg @ per_shard))

(* What a sharded page says that the walk does not carry. *)
let status_sharding t =
  Option.map
    (fun _ ->
      let coord = Option.value t.coord ~default:t in
      {
        Status.accept = coord.accept_strategy;
        serving_shard =
          (match t.role with Shard_member { id; _ } -> id | _ -> -1);
        handoff_shed = Obs.Counter.value coord.handoff_shed;
      })
    (shard_peers t)

(* /metrics: the same walk, rendered as Prometheus text exposition. *)
let metrics_body t = Obs.Exposition.render (snd (collect_for t))

(* ?window=N: the newest N flight-recorder rollups as JSON. *)
let window_body t n =
  let rollups = with_recorder t (fun r -> Obs.Recorder.window r n) in
  Printf.sprintf {|{"window":%d,"rollups":%s}|} n
    (Obs.Recorder.rollups_json rollups)
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Registry wiring                                                     *)
(* ------------------------------------------------------------------ *)

(* Every metric is a closure reading live server state; nothing below
   may be called while holding [obs_mutex] ([collect] runs the closures,
   and the lock is not reentrant). *)
let register_metrics t =
  let r = t.registry in
  (* Sharded: stamp every series of this instance with its shard id, so
     per-shard and stripped-label aggregate rows coexist as unique
     (name, labels) pairs in the combined exposition. *)
  let sl =
    match t.role with
    | Shard_member { id; _ } -> [ ("shard", string_of_int id) ]
    | Standalone | Shard_coordinator _ -> []
  in
  let c ~name ~help ?(labels = []) read =
    Obs.Registry.counter r ~name ~help ~labels:(labels @ sl) read
  in
  let g ~name ~help ?(labels = []) read =
    Obs.Registry.gauge r ~name ~help ~labels:(labels @ sl) read
  in
  let hist ~name ~help ?(labels = []) read =
    Obs.Registry.histogram r ~name ~help ~labels:(labels @ sl) read
  in
  let inf ~name ~help ~labels =
    Obs.Registry.info r ~name ~help ~labels:(labels @ sl)
  in
  let locked f () = with_obs_lock t f in
  let cstat () = File_cache.stats t.cache in
  inf ~name:"flash_build_info"
    ~help:"Build information (constant 1)."
    ~labels:[ ("ocaml", Sys.ocaml_version); ("server", t.config.server_name) ];
  inf ~name:"flash_config_info"
    ~help:"Effective server configuration (constant 1)."
    ~labels:
      [
        ("backend", Evio.name t.config.event_backend);
        ("cache_admission", (cstat ()).Flash_cache.Store.admission);
        ("cache_policy", (cstat ()).Flash_cache.Store.policy);
        ("mode", mode_string t.config.mode);
        ("send_path", if t.gather_writes then "writev" else "copy");
      ];
  g ~name:"flash_uptime_seconds" ~help:"Seconds since server start."
    (fun () -> t.config.clock () -. t.started_at);
  let tc field () = total t field in
  c ~name:"flash_http_requests_total" ~help:"Requests parsed and answered."
    (tc Tally.requests);
  c ~name:"flash_http_errors_total"
    ~help:"Requests answered with an error status." (tc Tally.errors);
  Array.iteri
    (fun i cls ->
      c ~name:"flash_http_responses_total" ~help:"Responses by status class."
        ~labels:[ ("class", cls) ]
        (tc (Tally.status_class i)))
    status_class_names;
  c ~name:"flash_connections_total" ~help:"Connections accepted."
    (tc Tally.connections);
  g ~name:"flash_active_connections"
    ~help:"Connections currently open (MP: summed over children)."
    (fun () -> float_of_int (total t Tally.active));
  c ~name:"flash_writev_calls_total" ~help:"Gather writes issued."
    (tc Tally.writev_calls);
  c ~name:"flash_write_calls_total" ~help:"Scalar/fallback writes issued."
    (tc Tally.write_calls);
  c ~name:"flash_bytes_copied_total"
    ~help:"Response bytes copied through userspace."
    (tc Tally.bytes_copied);
  c ~name:"flash_bytes_sent_total"
    ~help:"Response bytes accepted by the kernel."
    (tc Tally.bytes_sent);
  hist ~name:"flash_request_duration_seconds"
    ~help:"Per-request latency, parse completion to response generation."
    (fun () -> latency_now t);
  let fl = [ ("cache", "file") ] in
  c ~name:"flash_cache_hits_total" ~help:"File-cache hits." ~labels:fl
    (tc Tally.cache_hits);
  c ~name:"flash_cache_misses_total" ~help:"File-cache misses." ~labels:fl
    (tc Tally.cache_misses);
  c ~name:"flash_cache_evictions_total"
    ~help:"File-cache evictions under capacity pressure." ~labels:fl
    (tc Tally.cache_evictions);
  c ~name:"flash_cache_admitted_total"
    ~help:"Entries admitted by the admission policy." ~labels:fl
    (tc Tally.cache_admitted);
  c ~name:"flash_cache_rejected_total"
    ~help:"Entries rejected by the admission policy." ~labels:fl
    (tc Tally.cache_rejected);
  g ~name:"flash_cache_entries" ~help:"Entries resident in the file cache."
    ~labels:fl
    (fun () -> float_of_int (total t Tally.cache_entries));
  g ~name:"flash_cache_resident_bytes"
    ~help:"Bytes resident in the file cache." ~labels:fl
    (fun () -> float_of_int (total t Tally.cache_bytes));
  g ~name:"flash_cache_capacity_bytes" ~help:"Configured file-cache capacity."
    ~labels:fl
    (fun () -> float_of_int (cstat ()).Flash_cache.Store.capacity);
  g ~name:"flash_cache_mapped_bytes"
    ~help:"File bytes currently mmapped (MP: summed over children)."
    (fun () -> float_of_int (total t Tally.mapped));
  (match t.helper with
  | None -> ()
  | Some h ->
      c ~name:"flash_helper_jobs_total"
        ~help:"Disk jobs dispatched to helper processes."
        (fun () -> Helper.dispatched h);
      g ~name:"flash_helper_queue_depth"
        ~help:"Helper jobs queued or in flight."
        (fun () -> float_of_int (Helper.queue_depth h));
      g ~name:"flash_helper_queue_depth_hwm"
        ~help:"Helper queue depth high-water mark."
        (fun () -> float_of_int (Helper.queue_depth_hwm h));
      hist ~name:"flash_helper_job_duration_seconds"
        ~help:"Helper disk-job latency."
        (fun () -> Helper.job_latency h));
  (* Every iteration is one wakeup: both names read one counter. *)
  let iterations () = Obs.Loopstat.iterations t.loopstat in
  c ~name:"flash_loop_iterations_total" ~help:"Event-loop iterations."
    iterations;
  c ~name:"flash_loop_stalls_total"
    ~help:"Loop iterations over the stall threshold."
    (fun () -> Obs.Loopstat.stalls t.loopstat);
  g ~name:"flash_loop_max_stall_seconds" ~help:"Longest loop iteration."
    (fun () -> Obs.Loopstat.max_stall t.loopstat);
  c ~name:"flash_loop_wakeups_total" ~help:"Readiness waits that returned."
    iterations;
  c ~name:"flash_loop_ready_fds_total"
    ~help:"Ready descriptors returned across all wakeups."
    (fun () -> Obs.Loopstat.ready_fds t.loopstat);
  g ~name:"flash_loop_wait_seconds"
    ~help:"Cumulative seconds blocked awaiting readiness."
    (fun () -> Obs.Loopstat.wait_time t.loopstat);
  g ~name:"flash_loop_work_seconds"
    ~help:"Cumulative seconds processing ready events."
    (fun () -> Obs.Loopstat.work_time t.loopstat);
  c ~name:"flash_loop_timer_fires_total"
    ~help:"Timer-wheel expirations handled."
    (fun () -> Obs.Loopstat.timer_fires t.loopstat);
  g ~name:"flash_timers_pending" ~help:"Timers pending in the wheel."
    (fun () -> float_of_int (Evio.Timer_wheel.pending t.wheel));
  c ~name:"flash_accept_emfile_total" ~help:"Accepts shed on EMFILE/ENFILE."
    (tc Tally.accept_shed);
  g ~name:"flash_accept_paused"
    ~help:"1 while the listen socket is parked by EMFILE backoff."
    (fun () -> if t.accept_gate.paused then 1. else 0.);
  (match t.tracer with
  | None -> ()
  | Some tracer ->
      let ring f g =
        match t.trace_ring with
        | Some ring -> fun () -> f ring
        | None -> locked (fun () -> g tracer)
      in
      c ~name:"flash_traces_completed_total" ~help:"Request traces completed."
        (ring Trace_ring.completed Obs.Trace.completed);
      c ~name:"flash_traces_evicted_total"
        ~help:"Traces evicted from the ring."
        (ring Trace_ring.evicted Obs.Trace.evicted);
      g ~name:"flash_trace_ring_capacity" ~help:"Completed-trace ring size."
        (fun () ->
          float_of_int (ring Trace_ring.capacity Obs.Trace.capacity ())));
  (match t.guard with
  | None -> ()
  | Some guard ->
      g ~name:"flash_guard_state"
        ~help:
          "Shed level: 0 normal, 1 shedding idle keep-alives, 2 also \
           refusing new connections, 3 also refusing helper-queue \
           admission."
        (fun () -> float_of_int (Guard.level_code (Guard.level guard)));
      g ~name:"flash_guard_tracked_peers"
        ~help:"Peer addresses with a live guard ledger."
        (fun () -> float_of_int (Guard.tracked_peers guard));
      List.iter
        (fun reason ->
          c ~name:"flash_guard_shed_total"
            ~help:"Connections, requests and jobs shed by the guard."
            ~labels:[ ("reason", Guard.reason_label reason) ]
            (fun () -> Guard.shed_count guard reason))
        Guard.all_reasons);
  (match t.helper with
  | None -> ()
  | Some h ->
      g ~name:"flash_helper_queued"
        ~help:"Helper jobs waiting in the queue (not yet started)."
        (fun () -> float_of_int (Helper.queued h));
      g ~name:"flash_helper_in_flight"
        ~help:"Helper jobs a worker has started but not finished."
        (fun () -> float_of_int (Helper.in_flight h));
      c ~name:"flash_helper_rejected_total"
        ~help:"Helper dispatches refused by the bounded queue."
        (fun () -> Helper.rejected h));
  (match (t.warm, t.helper) with
  | Some w, Some h ->
      c ~name:"flash_warm_cycles_total" ~help:"Mining cycles completed."
        (fun () -> Obs.Counter.value w.w_cycles);
      c ~name:"flash_warm_candidates_ranked_total"
        ~help:"Warming candidates ranked across mining cycles."
        (fun () -> Obs.Counter.value w.w_ranked);
      c ~name:"flash_warm_prefetch_issued_total"
        ~help:"Prefetch jobs dispatched on the helpers' low-priority lane."
        (fun () -> Obs.Counter.value w.w_issued);
      c ~name:"flash_warm_prefetch_completed_total"
        ~help:"Prefetches that inserted a cache entry."
        (fun () -> Obs.Counter.value w.w_completed);
      c ~name:"flash_warm_prefetch_failed_total"
        ~help:"Prefetches that found no cacheable file."
        (fun () -> Obs.Counter.value w.w_failed);
      c ~name:"flash_warm_prefetch_rejected_total"
        ~help:"Prefetch dispatches refused by the bounded low lane."
        (fun () -> Helper.low_rejected h);
      c ~name:"flash_warm_hits_after_warm_total"
        ~help:"Prefetched entries later hit by client demand."
        (fun () -> Obs.Counter.value w.w_hits_after);
      g ~name:"flash_warm_pinned_bytes"
        ~help:"Bytes pinned in the hot tier."
        (fun () -> float_of_int (File_cache.pinned_bytes t.cache));
      g ~name:"flash_warm_pinned_entries"
        ~help:"Entries pinned in the hot tier."
        (fun () -> float_of_int (File_cache.pinned_count t.cache));
      g ~name:"flash_warm_tracked_paths"
        ~help:"Distinct paths the miner is tracking."
        (fun () -> float_of_int (Flash_warm.Miner.tracked w.w_miner))
  | _ -> ());
  match t.slo with
  | None -> ()
  | Some slo ->
      g ~name:"flash_slo_state" ~help:"0 healthy, 1 degraded, 2 breached."
        (fun () -> float_of_int (Obs.Slo.state_code slo));
      g ~name:"flash_slo_burn_ratio"
        ~help:
          "Fraction of recent traffic-bearing windows violating the latency \
           target."
        (fun () -> Obs.Slo.burn slo);
      g ~name:"flash_slo_windows"
        ~help:"Traffic-bearing windows in the SLO horizon."
        (fun () -> float_of_int (Obs.Slo.windows slo));
      inf ~name:"flash_slo_info"
        ~help:"Latency SLO configuration (constant 1)."
        ~labels:
          [
            ("quantile", Printf.sprintf "%g" (Obs.Slo.quantile slo));
            ("target_ms", Printf.sprintf "%g" (Obs.Slo.target_ms slo));
          ]

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* Send-path accounting, all modes. *)
let count_send ?(sent = 0) t ~writev ~writes ~copied =
  with_obs_lock t (fun () ->
      Tally.add t.tally Tally.writev_calls writev;
      Tally.add t.tally Tally.write_calls writes;
      Tally.add t.tally Tally.bytes_copied copied;
      Tally.add t.tally Tally.bytes_sent sent)

(* Strings (error bodies, status/trace payloads, CGI chunks, per-request
   headers) enter the send queue by being copied once into an off-heap
   buffer — a counted copy.  Cache-hit responses bypass this entirely:
   their header and body slices come straight from the cache entry. *)
let enqueue_string t conn s =
  let copied = Sendq.push_string conn.outq s in
  count_send t ~writev:0 ~writes:0 ~copied

let enqueue_slice conn buf = Sendq.push_slice conn.outq (Iovec.slice buf)

let render_header ?last_modified ?(extra = []) t ~status ~content_type
    ~content_length ~keep =
  Http.Response.header ~status ?content_type ?content_length ?last_modified
    ~extra ~keep_alive:keep ~server:t.config.server_name
    ~date:(Unix.gettimeofday ()) ?align:(align_of t) ()

(* An error page.  [~log:false] leaves it out of the access log (a
   request too malformed to name a target). *)
let enqueue_error ?(target = "-") ?(meth = "GET") ?(log = true) ?extra t conn
    status ~keep ~head_only =
  let code = Http.Status.code status in
  if log then log_access ~conn t ~meth ~target ~status:code ~bytes:0;
  let body = Http.Response.error_body status in
  let header =
    render_header t ~status ?extra ~content_type:(Some "text/html")
      ~content_length:(Some (String.length body)) ~keep
  in
  enqueue_string t conn header;
  if not head_only then enqueue_string t conn body;
  commit t conn ~code ~keep

(* Guard bookkeeping sugar: count a shed decision, and build the
   Retry-After advice carried on guard-driven 429/503 responses. *)
let guard_shed t reason =
  match t.guard with Some g -> Guard.shed g reason | None -> ()

let guard_retry t =
  [
    Http.Response.retry_after
      (match t.guard with
      | Some g -> (Guard.config g).Guard.retry_after
      | None -> 1);
  ]

(* ------------------------------------------------------------------ *)
(* HTTP/1.1 semantics: conditionals, ranges, content negotiation       *)
(* ------------------------------------------------------------------ *)

(* Does the server advertise alternate codings at all?  When it does,
   every file response carries [Vary: Accept-Encoding] — deterministic
   across requests so cached headers stay valid. *)
let vary_gzip t = t.config.gzip_precompressed || t.config.gzip_lazy

let vary_extra t = if vary_gzip t then [ ("Vary", "Accept-Encoding") ] else []

(* Did the client negotiate the gzip coding (and can we offer one)? *)
let wants_gzip t (req : Http.Request.t) =
  vary_gzip t
  && Http.Negotiate.choose ~gzip_available:true
       (Http.Request.header req "accept-encoding")
     = Http.Negotiate.Gzip

let etag_of_string s =
  match Http.Etag.parse s with
  | Some e -> e
  | None -> { Http.Etag.weak = false; opaque = s }

(* One response plan per (request, selected representation): the
   conditional evaluation (RFC 9110 §13.2.2 precedence), then — for a
   proceeding GET — If-Range gating the Range field.  [size] is the
   selected representation's length (a gzip variant plans over its
   compressed bytes). *)
type plan =
  | P_full
  | P_not_modified
  | P_slice of int * int  (* body window: off, len *)
  | P_unsatisfiable
  | P_precondition_failed

let plan_for ~(req : Http.Request.t) ~etag ~mtime ~size =
  let header = Http.Request.header req in
  match Http.Conditional.evaluate ~meth:req.Http.Request.meth ~header ~etag
          ~mtime
  with
  | Http.Conditional.Not_modified -> P_not_modified
  | Http.Conditional.Precondition_failed -> P_precondition_failed
  | Http.Conditional.Proceed -> (
      match req.Http.Request.meth with
      | Http.Request.Head -> P_full  (* Range is GET-only (§14.2) *)
      | _ -> (
          match header "range" with
          | None -> P_full
          | Some r ->
              if not (Http.Conditional.if_range_permits ~header ~etag ~mtime)
              then P_full
              else (
                match Http.Range.plan r ~size with
                | Http.Range.Whole -> P_full
                | Http.Range.Single { off; len } -> P_slice (off, len)
                | Http.Range.Unsatisfiable -> P_unsatisfiable)))

(* 304 without a cache entry (streamed files): rendered per-request. *)
let enqueue_not_modified ?etag ?last_modified ?path t conn
    (req : Http.Request.t) ~keep =
  log_access ~conn ?path t
    ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
    ~target:req.Http.Request.raw_target ~status:304 ~bytes:0;
  let extra =
    (match etag with Some e -> [ ("ETag", e) ] | None -> []) @ vary_extra t
  in
  let header =
    render_header t ~status:Http.Status.Not_modified ~content_type:None
      ~content_length:None ?last_modified ~extra ~keep
  in
  enqueue_string t conn header;
  commit t conn ~code:304 ~keep

(* The zero-copy 304: a cache hit's conditional reply is the entry's
   pre-rendered 304 header — one slice, one gather write, no copies. *)
let enqueue_not_modified_entry ?path t conn (req : Http.Request.t)
    (entry : File_cache.entry) ~keep =
  log_access ~conn ?path t
    ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
    ~target:req.Http.Request.raw_target ~status:304 ~bytes:0;
  enqueue_slice conn
    (if keep then entry.File_cache.header_304_keep
     else entry.File_cache.header_304_close);
  commit t conn ~code:304 ~keep

(* The zero-copy fast path: a cache hit queues the pre-rendered header
   and the mmap-backed body as two slices — one gather write, no
   userspace copies. *)
let enqueue_entry ?path t conn (req : Http.Request.t)
    (entry : File_cache.entry) ~keep ~head_only =
  let body_len = Bigarray.Array1.dim entry.File_cache.body in
  log_access ~conn ?path t
    ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
    ~target:req.Http.Request.raw_target ~status:200
    ~bytes:(if head_only then 0 else body_len);
  enqueue_slice conn
    (if keep then entry.File_cache.header_keep
     else entry.File_cache.header_close);
  if not head_only then enqueue_slice conn entry.File_cache.body;
  commit t conn ~code:200 ~keep

(* The built-in endpoints (status, metrics, trace) bypass the access
   log: a monitoring scraper polling every few seconds would otherwise
   drown the real traffic records. *)
let enqueue_endpoint t conn ~keep ~head_only (body, content_type) =
  let header =
    render_header t ~status:Http.Status.Ok ~content_type:(Some content_type)
      ~content_length:(Some (String.length body))
      ~keep
  in
  enqueue_string t conn header;
  if not head_only then enqueue_string t conn body;
  commit t conn ~code:200 ~keep

(* ------------------------------------------------------------------ *)
(* Serving files                                                       *)
(* ------------------------------------------------------------------ *)

(* Up to [len] bytes of [fd] into [buf]: short only at end of file. *)
let read_into fd buf len =
  let rec loop off =
    if off >= len then off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> loop (off + n)
  in
  loop 0

(* Open and fstat a docroot file.  [O_NONBLOCK] keeps a FIFO from
   blocking the open; it is refused with any other non-regular file (a
   directory) as 403. *)
let open_regular full =
  match Unix.openfile full [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 with
  | exception Unix.Unix_error _ -> Error Http.Status.Not_found
  | fd -> (
      match Unix.fstat fd with
      | st when st.Unix.st_kind = Unix.S_REG -> Ok (fd, st)
      | _ ->
          Unix.close fd;
          Error Http.Status.Forbidden
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          Error Http.Status.Not_found)

(* Pre-render an entry's 200 and 304 header pairs (keep-alive and close
   variants each) around a body buffer: a fresh cache entry.  The header
   renders and (when mapping fails) the body read are the miss path's
   counted copies; a mapped body costs none. *)
let build_entry ?encoding t ~full ~body ~mapped ~mtime ~size =
  let content_type = Http.Mime.of_path full in
  let body_len = Bigarray.Array1.dim body in
  let suffix =
    match encoding with
    | Some "gzip" -> "-gz"
    | Some e -> "-" ^ e
    | None -> ""
  in
  let etag = Http.Etag.make ~suffix ~mtime ~size () in
  let date = Unix.gettimeofday () in
  let extra =
    [ ("ETag", etag); ("Accept-Ranges", "bytes") ]
    @ (match encoding with
      | Some e -> [ ("Content-Encoding", e) ]
      | None -> [])
    @ vary_extra t
  in
  let hk, hc =
    Http.Response.header_pair ~status:Http.Status.Ok
      ~server:t.config.server_name ~date ~last_modified:mtime ~content_type
      ~content_length:body_len ~extra ?align:(align_of t) ()
  in
  let h304k, h304c =
    Http.Response.header_pair ~status:Http.Status.Not_modified
      ~server:t.config.server_name ~date ~last_modified:mtime
      ~extra:([ ("ETag", etag) ] @ vary_extra t)
      ?align:(align_of t) ()
  in
  count_send t ~writev:0 ~writes:0
    ~copied:
      ((if mapped then 0 else body_len)
      + String.length hk + String.length hc + String.length h304k
      + String.length h304c);
  {
    File_cache.body;
    mapped;
    mtime;
    size;
    etag;
    encoding;
    header_keep = Iovec.of_string hk;
    header_close = Iovec.of_string hc;
    header_304_keep = Iovec.of_string h304k;
    header_304_close = Iovec.of_string h304c;
  }

(* Obtain the gzip representation of [full] for a client that
   negotiated it: the cached variant if its origin validators still
   hold, else a fresh [.gz] sibling (never one staler than the origin),
   else — when enabled — an inline stored-block compression of the
   origin body.  The variant is cached beside its origin under the same
   policy and budget; [None] means serve identity. *)
let gzip_entry t ~full ~(origin : File_cache.entry) =
  let mtime = origin.File_cache.mtime and size = origin.File_cache.size in
  match
    update_cache t (fun () ->
        File_cache.find_variant t.cache full ~encoding:"gzip" ~mtime ~size)
  with
  | Some e -> Some e
  | None -> (
      let from_sibling () =
        if not t.config.gzip_precompressed then None
        else
          match open_regular (full ^ ".gz") with
          | Error _ -> None
          | Ok (fd, st) ->
              let body =
                if st.Unix.st_mtime < mtime then None
                else Some (File_cache.map_body fd ~size:st.Unix.st_size)
              in
              Unix.close fd;
              body
      in
      let from_lazy () =
        if not t.config.gzip_lazy then None
        else begin
          let n = Bigarray.Array1.dim origin.File_cache.body in
          let gz =
            Flash_util.Gzip.compress
              (Iovec.sub_string origin.File_cache.body ~off:0 ~len:n)
          in
          (* The compressor reads the body and writes a fresh buffer:
             a counted copy, like any miss-path materialisation. *)
          count_send t ~writev:0 ~writes:0 ~copied:(String.length gz);
          Some (Iovec.of_string gz, false)
        end
      in
      match (match from_sibling () with None -> from_lazy () | s -> s) with
      | None -> None
      | Some (body, mapped) ->
          let entry =
            build_entry ~encoding:"gzip" t ~full ~body ~mapped ~mtime ~size
          in
          update_cache t (fun () ->
              File_cache.insert_variant t.cache full ~encoding:"gzip" entry);
          Some entry)

(* Swap in the gzip representation when the client negotiated one and
   we can produce it; otherwise the identity entry stands. *)
let negotiate_entry t (req : Http.Request.t) ~full entry =
  if wants_gzip t req then
    match gzip_entry t ~full ~origin:entry with
    | Some gz -> gz
    | None -> entry
  else entry

(* 206: the Content-Range header varies per request so it is rendered
   here (a counted copy); [push] queues the window itself — an offset
   slice of a cached mapping (one gather write, zero body copies) or a
   streamed descriptor. *)
let enqueue_partial ?encoding t conn (req : Http.Request.t) ~full ~etag ~mtime
    ~size ~keep ~off ~len push =
  log_access ~conn ~path:full t
    ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
    ~target:req.Http.Request.raw_target ~status:206 ~bytes:len;
  let extra =
    [
      ("Content-Range", Http.Range.content_range ~off ~len ~size);
      ("ETag", etag);
      ("Accept-Ranges", "bytes");
    ]
    @ (match encoding with Some e -> [ ("Content-Encoding", e) ] | None -> [])
    @ vary_extra t
  in
  let header =
    render_header t ~status:Http.Status.Partial_content ~last_modified:mtime
      ~extra
      ~content_type:(Some (Http.Mime.of_path full))
      ~content_length:(Some len) ~keep
  in
  enqueue_string t conn header;
  push ();
  commit t conn ~code:206 ~keep

(* The single dispatch point for serving a cache entry (origin or
   negotiated variant), in every mode: evaluate conditionals
   and the Range field against the selected representation, then take
   the zero-copy path the plan names. *)
let enqueue_response t conn (req : Http.Request.t) ~full
    (entry : File_cache.entry) ~keep ~head_only =
  let target = req.Http.Request.raw_target in
  let meth = Http.Request.meth_to_string req.Http.Request.meth in
  let size = File_cache.body_length entry in
  match
    plan_for ~req
      ~etag:(etag_of_string entry.File_cache.etag)
      ~mtime:entry.File_cache.mtime ~size
  with
  | P_not_modified -> enqueue_not_modified_entry ~path:full t conn req entry ~keep
  | P_precondition_failed ->
      enqueue_error t conn Http.Status.Precondition_failed ~keep ~head_only
        ~target ~meth
  | P_unsatisfiable ->
      enqueue_error t conn Http.Status.Range_not_satisfiable ~keep ~head_only
        ~target ~meth
        ~extra:[ ("Content-Range", Http.Range.content_range_unsatisfied ~size) ]
  | P_full -> enqueue_entry ~path:full t conn req entry ~keep ~head_only
  | P_slice (off, len) ->
      enqueue_partial ?encoding:entry.File_cache.encoding t conn req ~full
        ~etag:entry.File_cache.etag ~mtime:entry.File_cache.mtime ~size ~keep
        ~off ~len (fun () ->
          Sendq.push_slice conn.outq
            (Iovec.slice ~off ~len entry.File_cache.body))

(* AMPED: hand a miss to a helper, which stats and reads the file so
   that its pages are resident when the completion comes back.  The
   shedder can refuse queue admission, and the bounded queue can refuse
   at the door: both answer an early 503 with advice instead of letting
   the backlog grow. *)
let to_helper t conn helper (req : Http.Request.t) full ~keep ~head_only =
  let refuse () =
    enqueue_error ~extra:(guard_retry t) t conn Http.Status.Service_unavailable
      ~keep ~head_only
  in
  let admitted =
    match t.guard with
    | Some g -> Guard.queue_admission g = Guard.Admit
    | None -> true
  in
  if not admitted then refuse ()
  else if Helper.dispatch helper ~key:conn.key ~path:full then begin
    Hashtbl.replace t.by_helper_key conn.key conn;
    conn.state <- Waiting_helper (req, full)
  end
  else begin
    guard_shed t Guard.Helper_queue;
    refuse ()
  end

(* A cache miss, in every mode: open and fstat the file, then cache it
   as an mmap-backed entry with pre-rendered headers (even a 304 warms
   the cache) or, above [max_cached_file], stream it.  SPED, MP and MT
   do this inline under a disk-read span: a SPED loop stalls on a cold
   file, an MP child or MT worker blocks alone.  AMPED (paper §3.4)
   serves the miss in this pass, under a map span, only when mincore
   says every page is resident; otherwise the miss goes to a helper and
   comes back with [~paged_in:true].  The cold-media seam [slow_read]
   makes no page resident. *)
let serve_miss ?(paged_in = false) t conn (req : Http.Request.t) full ~keep
    ~head_only =
  let target = req.Http.Request.raw_target in
  let meth = Http.Request.meth_to_string req.Http.Request.meth in
  begin_work_span t conn (if t.helper = None then "disk-read" else "map");
  if t.helper = None then Option.iter (fun f -> f full) t.config.slow_read;
  match open_regular full with
  | Error status -> enqueue_error t conn status ~keep ~head_only ~target ~meth
  | Ok (fd, st) -> (
      let size = st.Unix.st_size and mtime = st.Unix.st_mtime in
      let cached = size <= t.config.max_cached_file in
      let mapping = if cached then File_cache.map fd ~size else None in
      let resident () =
        cached && t.config.slow_read = None
        && match mapping with Some b -> Iovec.resident b | None -> size = 0
      in
      match t.helper with
      | Some helper when not (paged_in || resident ()) ->
          Unix.close fd;
          end_work_span t conn;
          to_helper t conn helper req full ~keep ~head_only
      | _ when cached ->
          let body, mapped =
            match mapping with
            | Some b -> (b, true)
            | None -> File_cache.map_body fd ~size
          in
          Unix.close fd;
          let entry = build_entry t ~full ~body ~mapped ~mtime ~size in
          update_cache t (fun () -> File_cache.insert t.cache full entry);
          let entry = negotiate_entry t req ~full entry in
          enqueue_response t conn req ~full entry ~keep ~head_only
      | _ ->
          (* Streamed: no cache entry, so validators come straight from
             the stat; gzip negotiation is skipped (no mapped origin body
             to compress, and siblings of this size would not be cached
             either). *)
          let etag_s = Http.Etag.make ~mtime ~size () in
          let finish_error status ?extra () =
            Unix.close fd;
            enqueue_error t conn status ?extra ~keep ~head_only ~target ~meth
          in
          match plan_for ~req ~etag:(etag_of_string etag_s) ~mtime ~size with
          | P_not_modified ->
              Unix.close fd;
              enqueue_not_modified ~path:full t conn req ~etag:etag_s
                ~last_modified:mtime ~keep
          | P_precondition_failed ->
              finish_error Http.Status.Precondition_failed ()
          | P_unsatisfiable ->
              let range = Http.Range.content_range_unsatisfied ~size in
              finish_error Http.Status.Range_not_satisfiable
                ~extra:[ ("Content-Range", range) ] ()
          | P_slice (off, len) ->
              enqueue_partial t conn req ~full ~etag:etag_s ~mtime ~size ~keep
                ~off ~len (fun () ->
                  ignore (Unix.lseek fd off Unix.SEEK_SET);
                  Sendq.push_file conn.outq fd ~len)
          | P_full ->
              log_access ~conn ~path:full t ~meth ~target ~status:200
                ~bytes:(if head_only then 0 else size);
              let header =
                render_header t ~status:Http.Status.Ok ~last_modified:mtime
                  ~extra:([ ("ETag", etag_s); ("Accept-Ranges", "bytes") ]
                          @ vary_extra t)
                  ~content_type:(Some (Http.Mime.of_path full))
                  ~content_length:(Some size) ~keep
              in
              enqueue_string t conn header;
              if head_only then Unix.close fd
              else Sendq.push_file conn.outq fd ~len:size;
              commit t conn ~code:200 ~keep)

(* ------------------------------------------------------------------ *)
(* CGI                                                                 *)
(* ------------------------------------------------------------------ *)

let start_cgi t conn (req : Http.Request.t) full ~keep:_ =
  (* CGI output has no Content-Length: delimit by connection close. *)
  match Unix.stat full with
  | exception Unix.Unix_error _ ->
      enqueue_error t conn Http.Status.Not_found ~keep:false ~head_only:false
  | st when st.Unix.st_kind <> Unix.S_REG || st.Unix.st_perm land 0o111 = 0 ->
      enqueue_error t conn Http.Status.Forbidden ~keep:false ~head_only:false
  | _ -> (
      match Unix.pipe () with
      | exception Unix.Unix_error _ ->
          enqueue_error t conn Http.Status.Internal_server_error ~keep:false
            ~head_only:false
      | pipe_read, pipe_write ->
          let env =
            [|
              "GATEWAY_INTERFACE=CGI/1.1";
              "REQUEST_METHOD=" ^ Http.Request.meth_to_string req.Http.Request.meth;
              "QUERY_STRING=" ^ Option.value ~default:"" req.Http.Request.query;
              "SCRIPT_NAME=" ^ req.Http.Request.path;
              "SERVER_SOFTWARE=" ^ t.config.server_name;
            |]
          in
          let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
          let pid =
            Unix.create_process_env full [| full |] env dev_null pipe_write
              Unix.stderr
          in
          Unix.close dev_null;
          Unix.close pipe_write;
          Unix.set_nonblock pipe_read;
          let header =
            render_header t ~status:Http.Status.Ok ~content_type:None
              ~content_length:None ~keep:false
          in
          enqueue_string t conn header;
          conn.close_after_flush <- false;
          conn.state <- Streaming_cgi (pipe_read, pid);
          t.cgi_inflight <- t.cgi_inflight + 1)

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

let process_request t conn (req : Http.Request.t) =
  let keep = Http.Request.keep_alive req in
  let head_only = req.Http.Request.meth = Http.Request.Head in
  match req.Http.Request.meth with
  | Http.Request.Post | Http.Request.Other _ ->
      enqueue_error t conn Http.Status.Not_implemented ~keep:false ~head_only
  | Http.Request.Get | Http.Request.Head -> (
      if is_status_request t req then
        enqueue_endpoint t conn ~keep ~head_only
          (match Status.window req with
          | Some n -> (window_body t n, "application/json")
          | None ->
              let json = Status.wants_json req in
              ( Status.body
                  ~stall_threshold:(Obs.Loopstat.threshold t.loopstat)
                  ~sharding:(status_sharding t) ~json (collect_for t),
                if json then "application/json" else "text/plain" ))
      else if is_metrics_request t req then
        enqueue_endpoint t conn ~keep ~head_only
          (metrics_body t, "text/plain; version=0.0.4")
      else if is_trace_request t req then
        enqueue_endpoint t conn ~keep ~head_only (trace_body t, "application/json")
      else begin
        (* Pathname translation + cache lookup, as its own span. *)
        let resolve_sp = ref None in
        with_tracer t (fun tracer ->
            match conn.trace with
            | Some tr ->
                resolve_sp :=
                  Some
                    (Obs.Trace.begin_span tracer tr ~track:conn.track
                       "resolve")
            | None -> ());
        let end_resolve () =
          with_tracer t (fun tracer ->
              match !resolve_sp with
              | Some sp ->
                  Obs.Trace.end_span tracer sp;
                  resolve_sp := None
              | None -> ())
        in
        match resolve t req with
        | Error status ->
            end_resolve ();
            enqueue_error t conn status ~keep ~head_only
        | Ok path when is_cgi path ->
            end_resolve ();
            let cgi_full =
              match t.guard with
              | Some g -> (
                  match (Guard.config g).Guard.max_cgi_inflight with
                  | Some cap -> t.cgi_inflight >= cap
                  | None -> false)
              | None -> false
            in
            if not t.config.enable_cgi then
              enqueue_error t conn Http.Status.Forbidden ~keep ~head_only
            else if cgi_full then begin
              (* Every CGI slot holds a live child process; refuse early
                 with advice rather than fork past the cap. *)
              guard_shed t Guard.Cgi_limit;
              enqueue_error ~extra:(guard_retry t) t conn
                Http.Status.Service_unavailable ~keep ~head_only
            end
            else begin
              begin_work_span t conn "cgi";
              start_cgi t conn req (t.config.docroot ^ path) ~keep
            end
        | Ok path -> (
            let full = t.config.docroot ^ path in
            match
              with_cache_lock t (fun () -> File_cache.find_trusted t.cache full)
            with
            | Some entry ->
                end_resolve ();
                (* Attribute the hit when a prefetch put this entry
                   here before any client asked for it. *)
                (match t.warm with
                | Some w when Hashtbl.mem w.w_warmed full ->
                    Hashtbl.remove w.w_warmed full;
                    Obs.Counter.incr w.w_hits_after
                | _ -> ());
                let entry = negotiate_entry t req ~full entry in
                enqueue_response t conn req ~full entry ~keep ~head_only
            | None ->
                end_resolve ();
                serve_miss t conn req full ~keep ~head_only)
      end)

let rec try_parse t conn =
  if conn.state = Reading && conn.inbuf <> "" then begin
    ensure_trace t conn;
    match Http.Request.parse conn.inbuf with
    | Http.Request.Incomplete -> ()
    | Http.Request.Bad _ ->
        conn.inbuf <- "";
        conn.req_start <- t.config.clock ();
        end_parse_span t conn ~label:"bad-request";
        count t Tally.requests 1;
        enqueue_error ~log:false t conn Http.Status.Bad_request ~keep:false
          ~head_only:false
    | Http.Request.Complete (req, consumed) ->
        conn.inbuf <-
          String.sub conn.inbuf consumed (String.length conn.inbuf - consumed);
        conn.req_start <- t.config.clock ();
        end_parse_span t conn
          ~label:
            (Http.Request.meth_to_string req.Http.Request.meth
            ^ " " ^ req.Http.Request.raw_target);
        count t Tally.requests 1;
        let rate_verdict =
          match t.guard with
          | Some g -> Guard.on_request g ~peer:conn.peer
          | None -> Guard.Admit
        in
        (match rate_verdict with
        | Guard.Reject _ ->
            (* Over the per-peer rate cap (the guard counted the shed):
               429 with advice, and drop the connection so a looping
               client can't ride keep-alive. *)
            enqueue_error ~extra:(guard_retry t) t conn
              Http.Status.Too_many_requests ~keep:false ~head_only:false
        | Guard.Admit -> process_request t conn req);
        (* Pipelined requests are handled once the response drains. *)
        if Sendq.is_empty conn.outq then try_parse t conn
  end

(* ------------------------------------------------------------------ *)
(* Connection IO, shared by the event loop and the blocking loop      *)
(* ------------------------------------------------------------------ *)

(* Release a connection's own resources.  The event loop's
   registrations and timers are dropped by [forget_conn], which the
   loop runs right after the handler that closed the connection
   returns — before anything can reuse its descriptor numbers. *)
let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    (* A request still in flight (client hung up, error path) gets its
       trace closed here rather than lost. *)
    finish_request_trace ~closing:true t conn;
    (match t.guard with
    | Some g -> Guard.on_disconnect g ~peer:conn.peer
    | None -> ());
    (match conn.state with
    | Streaming_cgi (fd, pid) ->
        t.cgi_inflight <- t.cgi_inflight - 1;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | Reading | Waiting_helper _ -> ());
    Sendq.close_files conn.outq;
    Sendq.clear conn.outq;
    count t Tally.active (-1);
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* The head-request buffer: reads land in the serving context's scratch
   and append to [inbuf].  The cap bounds parse-buffer growth
   against a client streaming junk or very deep pipelines. *)
let max_inbuf = 262144

(* One read scratch per serving context, never per connection. *)
let scratch_size = 65536

(* [n] fresh bytes sit at the front of [scratch]. *)
let on_input t conn n =
  conn.last_active <- t.config.clock ();
  conn.recv_bytes <- conn.recv_bytes + n;
  conn.inbuf <- conn.inbuf ^ Bytes.sub_string conn.scratch 0 n;
  if String.length conn.inbuf > max_inbuf then close_conn t conn
  else try_parse t conn

(* The header deadline lapsed mid-head: discard the partial bytes and
   answer 408 — a byte-at-a-time sender gets a response and a close
   instead of a held parse buffer. *)
let request_timeout t conn =
  guard_shed t Guard.Slow_header;
  conn.inbuf <- "";
  count t Tally.requests 1;
  enqueue_error t conn Http.Status.Request_timeout ~keep:false ~head_only:false

(* Flush queued slices with gather writes: everything contiguous at the
   head of the queue — header + body of one response, or several
   pipelined responses — goes to the kernel in one [writev].  A partial
   write advances slice offsets in place; on a nonblocking socket the
   rest waits for the next writability event, on a blocking one the
   loop simply calls again.  With the copying fallback the same
   gather is staged through the read scratch (free between reads) and
   written with one scalar [write] — the measured difference between
   the two paths.  Streamed file chunks are staged there too. *)
let handle_writable t conn =
  conn.last_active <- t.config.clock ();
  let progress = ref true in
  (try
     while !progress && not (Sendq.is_empty conn.outq) do
       match Sendq.head conn.outq with
       | Some (Sendq.Slice _) ->
           let slices = Sendq.gather conn.outq in
           let total = Iovec.total_length slices in
           let written, partial =
             if t.gather_writes then begin
               let n = Iovec.writev conn.fd slices in
               count_send t ~writev:1 ~writes:0 ~copied:0 ~sent:n;
               (n, n < total)
             end
             else begin
               let n, copied =
                 Iovec.writev_copy ~scratch:conn.scratch conn.fd slices
               in
               count_send t ~writev:0 ~writes:1 ~copied ~sent:n;
               (n, n < copied)
             end
           in
           Sendq.advance conn.outq written;
           conn.sent_bytes <- conn.sent_bytes + written;
           if partial then progress := false
       | Some (Sendq.File f) ->
           let chunk = min (Bytes.length conn.scratch) f.remaining in
           let got = read_into f.src conn.scratch chunk in
           let n = Unix.write conn.fd conn.scratch 0 got in
           count_send t ~writev:0 ~writes:1 ~copied:got ~sent:n;
           conn.sent_bytes <- conn.sent_bytes + n;
           (* A short write drops the tail of this chunk; re-read it via
              the file offset by seeking back. *)
           if n < got then begin
             ignore (Unix.lseek f.src (n - got) Unix.SEEK_CUR);
             progress := false
           end;
           f.remaining <- f.remaining - n;
           if f.remaining <= 0 || got < chunk then begin
             Unix.close f.src;
             Sendq.pop conn.outq
           end
       | None -> progress := false
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> close_conn t conn);
  if conn.alive && Sendq.is_empty conn.outq then begin
    match conn.state with
    | Streaming_cgi _ -> ()  (* more output may come from the pipe *)
    | Reading | Waiting_helper _ ->
        (* Response fully flushed: the write span (opened when the
           response was generated) closes the request's trace here. *)
        if conn.write_span <> None then finish_request_trace t conn;
        if conn.close_after_flush then close_conn t conn
        else try_parse t conn
  end

(* The script's output ended — EOF, a read error, or its wall-clock
   deadline ([~kill]) — so reap it, commit the request and close once
   the queue drains. *)
let end_cgi ?(kill = false) t conn fd pid =
  if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  t.cgi_inflight <- t.cgi_inflight - 1;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid (if kill then [] else [ Unix.WNOHANG ]) pid)
   with Unix.Unix_error _ -> ());
  commit t conn ~code:200 ~keep:false;
  if Sendq.is_empty conn.outq then close_conn t conn

(* Copy whatever the script has written into the send queue. *)
let pump_cgi t conn fd pid =
  match Unix.read fd conn.scratch 0 (Bytes.length conn.scratch) with
  | 0 -> end_cgi t conn fd pid
  | n ->
      let buf = Iovec.of_bytes conn.scratch ~len:n in
      Sendq.push_slice conn.outq (Iovec.slice buf);
      count_send t ~writev:0 ~writes:0 ~copied:n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> end_cgi t conn fd pid

(* ------------------------------------------------------------------ *)
(* The event loop: readiness, timers and the loop's tables             *)
(* ------------------------------------------------------------------ *)

(* Forget the CGI pipe's registration. *)
let unregister_cgi t conn =
  match conn.cgi_fd_registered with
  | None -> ()
  | Some pfd ->
      Evio.Backend.deregister t.evio pfd;
      Hashtbl.remove t.fd_owners pfd;
      conn.cgi_fd_registered <- None

let cancel_timer t slot =
  match slot with
  | Some tm ->
      Evio.Timer_wheel.cancel t.wheel tm;
      None
  | None -> None

(* The loop's half of closing a connection: readiness, timers, tables. *)
let forget_conn t conn =
  if conn.registered then begin
    Evio.Backend.deregister t.evio conn.fd;
    conn.registered <- false
  end;
  unregister_cgi t conn;
  conn.idle_timer <- cancel_timer t conn.idle_timer;
  conn.cgi_timer <- cancel_timer t conn.cgi_timer;
  conn.hdr_timer <- cancel_timer t conn.hdr_timer;
  conn.xfer_timer <- cancel_timer t conn.xfer_timer;
  Hashtbl.remove t.conns conn.key;
  Hashtbl.remove t.by_helper_key conn.key;
  Hashtbl.remove t.fd_owners conn.fd

let drop_conn t conn =
  close_conn t conn;
  forget_conn t conn

(* Reconcile a connection's readiness interest and timers with its
   state after every handler: read while parsing, write while the send
   queue has bytes, the CGI pipe (and its deadline) while streaming,
   and the guard's header deadline while a request head is incomplete
   with nothing queued ahead of it.  Interest is diffed against the
   last push so an unchanged connection costs no syscall ([epoll_ctl])
   and no rebuild (poll).  A connection the handler closed is
   forgotten. *)
let sync_conn t conn =
  if not conn.alive then forget_conn t conn
  else begin
    let r = conn.state = Reading in
    let w = not (Sendq.is_empty conn.outq) in
    if (not conn.registered) || r <> conn.want_read || w <> conn.want_write
    then begin
      Evio.Backend.modify t.evio conn.fd ~read:r ~write:w;
      conn.registered <- true;
      conn.want_read <- r;
      conn.want_write <- w
    end;
    (match t.guard with
    | Some g when (Guard.config g).Guard.header_deadline > 0. ->
        let in_head = r && (not w) && conn.inbuf <> "" in
        if in_head && conn.hdr_timer = None then
          conn.hdr_timer <-
            Some
              (Evio.Timer_wheel.schedule t.wheel
                 ~at:(t.config.clock () +. (Guard.config g).Guard.header_deadline)
                 (T_hdr conn))
        else if not in_head then conn.hdr_timer <- cancel_timer t conn.hdr_timer
    | _ -> ());
    match (conn.state, conn.cgi_fd_registered) with
    | Streaming_cgi (pfd, _), None -> (
        (* The CGI pipe fd can itself land beyond select's FD_SETSIZE;
           a stream we cannot wait on must drop the connection rather
           than the loop. *)
        match Evio.Backend.register t.evio pfd ~read:true ~write:false with
        | () ->
            Hashtbl.replace t.fd_owners pfd (O_cgi conn);
            conn.cgi_fd_registered <- Some pfd;
            (* Wall-clock deadline: a wedged script is killed rather
               than holding the connection (and a helper-less loop's
               pipe slot) forever. *)
            if t.config.cgi_timeout > 0. then
              conn.cgi_timer <-
                Some
                  (Evio.Timer_wheel.schedule t.wheel
                     ~at:(conn.req_start +. t.config.cgi_timeout)
                     (T_cgi conn))
        | exception Evio.Backend_full _ -> drop_conn t conn)
    | (Reading | Waiting_helper _), Some _ ->
        unregister_cgi t conn;
        conn.cgi_timer <- cancel_timer t conn.cgi_timer
    | _ -> ()
  end

let handle_readable t conn =
  match Unix.read conn.fd conn.scratch 0 (Bytes.length conn.scratch) with
  | 0 -> close_conn t conn
  | n -> on_input t conn n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* A prefetch job finished: the helper already paged the file in, so
   the mmap + header rendering here never touch cold disk.  The entry
   is inserted like any miss-path fill and pinned while the hot tier
   has room — the rest of the pinning happens at the next mining
   cycle's re-rank. *)
let handle_prefetch_completion t w (c : Helper.completion) =
  match Hashtbl.find_opt w.w_prefetching c.Helper.key with
  | None -> ()
  | Some full -> (
      Hashtbl.remove w.w_prefetching c.Helper.key;
      match c.Helper.result with
      | Helper.Missing -> Obs.Counter.incr w.w_failed
      | Helper.Found { size; mtime } -> (
          if size > t.config.max_cached_file then Obs.Counter.incr w.w_failed
          else
            match Unix.openfile full [ Unix.O_RDONLY ] 0 with
            | exception Unix.Unix_error _ -> Obs.Counter.incr w.w_failed
            | fd ->
                let body, mapped = File_cache.map_body fd ~size in
                Unix.close fd;
                let entry = build_entry t ~full ~body ~mapped ~mtime ~size in
                update_cache t (fun () ->
                    File_cache.insert t.cache full entry;
                    if
                      (not (File_cache.pinned t.cache full))
                      && File_cache.pinned_bytes t.cache
                         + File_cache.entry_weight entry
                         <= w.w_pin_budget
                    then ignore (File_cache.pin t.cache full));
                if Hashtbl.length w.w_warmed >= warmed_limit then
                  Hashtbl.reset w.w_warmed;
                Hashtbl.replace w.w_warmed full ();
                Obs.Counter.incr w.w_completed))

let handle_helper_completions t =
  match t.helper with
  | None -> ()
  | Some helper ->
      let completions = Helper.drain helper in
      List.iter
        (fun (c : Helper.completion) ->
          (* Negative keys are prefetch jobs: no connection waits. *)
          if c.Helper.key < 0 then
            match t.warm with
            | Some w -> handle_prefetch_completion t w c
            | None -> ()
          else
          match Hashtbl.find_opt t.by_helper_key c.Helper.key with
          | None -> ()  (* connection died while the helper worked *)
          | Some conn -> (
              Hashtbl.remove t.by_helper_key c.Helper.key;
              match conn.state with
              | Waiting_helper (req, full) -> (
                  (* Stitch the helper's measured boundaries into the
                     waiting request's trace, attributed to the helper
                     track: queue wait, then the blocking disk work. *)
                  with_tracer t (fun tracer ->
                      match conn.trace with
                      | Some tr ->
                          Obs.Trace.add_span tracer ~track:"helper"
                            ~name:"helper-queue" ~start:c.Helper.enqueued
                            ~stop:c.Helper.started tr;
                          Obs.Trace.add_span tracer ~track:"helper"
                            ~name:"disk-read" ~start:c.Helper.started
                            ~stop:c.Helper.finished tr
                      | None -> ());
                  (* The loop's own open answers a file the helper
                     found missing. *)
                  serve_miss ~paged_in:true t conn req full
                    ~keep:(Http.Request.keep_alive req)
                    ~head_only:(req.Http.Request.meth = Http.Request.Head));
                  sync_conn t conn
              | Reading | Streaming_cgi _ -> ()))
        completions

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)
(* ------------------------------------------------------------------ *)

let accept_backoff_initial = 0.05
let accept_backoff_max = 1.0

(* EMFILE/ENFILE on accept: park the listen fd's read interest instead
   of spinning on a connection we cannot take (level-triggered
   readiness would wake the loop at full speed otherwise), and let a
   [T_resume_accept] timer re-arm it after a backoff that doubles while
   the descriptor table stays full. *)
let pause_accept t g =
  count t Tally.accept_shed 1;
  if not g.paused then begin
    g.paused <- true;
    Evio.Backend.modify g.a_evio t.listen_fd ~read:false ~write:false;
    ignore
      (Evio.Timer_wheel.schedule g.a_wheel
         ~at:(t.config.clock () +. g.backoff)
         T_resume_accept);
    g.backoff <- Float.min accept_backoff_max (g.backoff *. 2.)
  end

(* The backoff timer fired: re-arm the listen interest.  [true] when it
   was parked, so the caller accepts what queued meanwhile. *)
let resume_accept t g =
  let was = g.paused in
  if was then begin
    g.paused <- false;
    Evio.Backend.modify g.a_evio t.listen_fd ~read:true ~write:false
  end;
  was

(* One accept through the fault-injection seam: [Some fd], or [None]
   when there is nothing to take — after parking the listen fd on
   EMFILE/ENFILE. *)
let accept_next t g =
  if match t.config.accept_fault with Some f -> f () | None -> false then begin
    pause_accept t g;
    None
  end
  else
    match Unix.accept t.listen_fd with
    | fd, _ ->
        g.backoff <- accept_backoff_initial;
        Some fd
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        pause_accept t g;
        None
    | exception Unix.Unix_error _ -> None

(* The guard keys peers by address only (no port): every connection
   from one host shares a ledger.  [getpeername] rather than the accept
   sockaddr so the hand-off path (shard adopting a coordinator-accepted
   fd) resolves the same way. *)
let peer_of_fd fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | exception Unix.Unix_error _ -> "unknown"

(* Refuse a connection at the door: one best-effort write of a minimal
   error response (the socket buffer is empty, so a short write only
   truncates the refusal), then close.  No connection record is built
   and the guard ledger was never charged. *)
let refuse_fd t fd reason =
  let status =
    match reason with
    | Guard.Conn_limit | Guard.Rate_limit -> Http.Status.Too_many_requests
    | _ -> Http.Status.Service_unavailable
  in
  count t Tally.connections 1;
  count t Tally.requests 1;
  count_response t ~code:(Http.Status.code status) ~latency:Float.nan;
  let retry =
    match t.guard with
    | Some g -> (Guard.config g).Guard.retry_after
    | None -> 1
  in
  let body = Http.Response.error_body status in
  let header =
    render_header t ~status
      ~extra:[ Http.Response.retry_after retry ]
      ~content_type:(Some "text/html")
      ~content_length:(Some (String.length body))
      ~keep:false
  in
  let payload = header ^ body in
  (try ignore (Unix.write_substring fd payload 0 (String.length payload))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Admit an accepted fd past the guard and build its connection record
   — both loops' first step — on the serving context's [track] and
   [scratch].  [None]: refused at the door. *)
let open_conn t fd ~key ~track ~scratch =
  let peer = peer_of_fd fd in
  match
    match t.guard with
    | Some g -> Guard.on_connect g ~peer
    | None -> Guard.Admit
  with
  | Guard.Reject reason ->
      refuse_fd t fd reason;
      None
  | Guard.Admit ->
      count t Tally.connections 1;
      count t Tally.active 1;
      let now = t.config.clock () in
      Some
        {
          fd;
          key;
          peer;
          inbuf = "";
          scratch;
          outq = Sendq.create ();
          state = Reading;
          close_after_flush = false;
          last_active = now;
          req_start = now;
          alive = true;
          accepted_at = now;
          reqs_served = 0;
          track;
          want_read = false;
          want_write = false;
          registered = false;
          cgi_fd_registered = None;
          idle_timer = None;
          cgi_timer = None;
          hdr_timer = None;
          xfer_timer = None;
          sent_bytes = 0;
          recv_bytes = 0;
          xfer_mark = 0;
          trace = None;
          parse_span = None;
          work_span = None;
          write_span = None;
        }

(* Adopt an accepted fd into this instance's event loop: register
   interest, arm the idle timer.  Shared by the direct accept path and
   the hand-off pop path (a shard adopting an fd the coordinator
   accepted).  Returns [false] when the backend refused the fd (shed;
   the caller decides whether to back off); a guard refusal keeps
   accepting, since the listen socket is fine. *)
let adopt_fd t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let track = t.loop_track and scratch = t.loop_scratch in
  match open_conn t fd ~key:t.next_key ~track ~scratch with
  | None -> true
  | Some conn -> (
      t.next_key <- t.next_key + 1;
      Hashtbl.replace t.conns conn.key conn;
      Hashtbl.replace t.fd_owners fd (O_client conn);
      match sync_conn t conn with
      | () ->
          let now = conn.accepted_at in
          if t.config.idle_timeout > 0. then
            conn.idle_timer <-
              Some
                (Evio.Timer_wheel.schedule t.wheel
                   ~at:(now +. t.config.idle_timeout)
                   (T_idle conn));
          (match t.guard with
          | Some g when (Guard.config g).Guard.min_byte_rate > 0. ->
              conn.xfer_timer <-
                Some
                  (Evio.Timer_wheel.schedule t.wheel
                     ~at:(now +. (Guard.config g).Guard.transfer_interval)
                     (T_xfer conn))
          | _ -> ());
          true
      | exception Evio.Backend_full _ ->
          (* select cannot wait on fd numbers >= FD_SETSIZE: shed this
             connection; the caller backs off exactly as if the process
             were out of descriptors. *)
          drop_conn t conn;
          false)

(* Hand an accepted fd to a shard over the ring, then poke one shard's
   wake pipe round-robin.  Whoever wakes first drains the ring, so the
   rotation spreads wakeups, not strictly connections — same spirit as
   the kernel's reuseport balancing, without a lock. *)
let handoff_fd t ring fd =
  if Handoff.push ring fd then begin
    let n = Array.length t.shards in
    if n > 0 then begin
      let sh = t.shards.(t.handoff_rr mod n) in
      t.handoff_rr <- t.handoff_rr + 1;
      try ignore (Unix.write sh.wake_write (Bytes.of_string "x") 0 1)
      with Unix.Unix_error _ -> ()
    end
  end
  else begin
    (* Every shard is saturated: shed at the door, like EMFILE. *)
    Obs.Counter.incr t.handoff_shed;
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

let accept_all t =
  let rec loop () =
    match accept_next t t.accept_gate with
    | None -> ()
    | Some fd -> (
        match t.role with
        | Shard_coordinator { ring = Some ring } ->
            handoff_fd t ring fd;
            loop ()
        | _ -> if adopt_fd t fd then loop () else pause_accept t t.accept_gate)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

(* The guard's share of the periodic tick: ledger sweep, SLO-pressure
   sampling and, at Shed_idle and above, giving back the cheapest
   standing work first — keep-alive connections that served their
   requests and have sat idle past the shed threshold. *)
let guard_sweep t ~now g =
  Guard.sweep g;
  (match t.slo with
  | Some slo ->
      Guard.note_pressure g
        ~state_code:(Obs.Slo.state_code slo)
        ~burn:(Obs.Slo.burn slo)
  | None -> ());
  if Guard.level g <> Guard.Normal then begin
    let cutoff = (Guard.config g).Guard.shed_idle_after in
    let victims =
      Hashtbl.fold
        (fun _ conn acc ->
          if
            conn.alive && conn.state = Reading && conn.inbuf = ""
            && Sendq.is_empty conn.outq
            && conn.reqs_served > 0
            && now -. conn.last_active >= cutoff
          then conn :: acc
          else acc)
        t.conns []
    in
    List.iter
      (fun conn ->
        guard_shed t Guard.Idle_reap;
        drop_conn t conn)
      victims
  end

(* Idle timers are lazy: activity only updates [last_active]; when the
   timer fires we either close a genuinely idle connection or push the
   timer out to [last_active + idle_timeout].  A busy keep-alive
   connection costs one wheel operation per idle_timeout, not one per
   request — and nothing scans every connection every iteration. *)
let handle_timer t ~now ev =
  match ev with
  | T_idle conn ->
      conn.idle_timer <- None;
      if conn.alive then
        if
          conn.state = Reading
          && Sendq.is_empty conn.outq
          && now -. conn.last_active > t.config.idle_timeout
        then drop_conn t conn
        else
          let at =
            if conn.state = Reading && Sendq.is_empty conn.outq then
              conn.last_active +. t.config.idle_timeout
            else now +. t.config.idle_timeout
          in
          conn.idle_timer <-
            Some (Evio.Timer_wheel.schedule t.wheel ~at (T_idle conn))
  | T_cgi conn -> (
      conn.cgi_timer <- None;
      if conn.alive then
        match conn.state with
        | Streaming_cgi (fd, pid) ->
            end_cgi ~kill:true t conn fd pid;
            sync_conn t conn
        | Reading | Waiting_helper _ -> ())
  | T_resume_accept -> if resume_accept t t.accept_gate then accept_all t
  | T_tick ->
      (* The loop's one periodic tick: close the recorder's window
         first, so windows close on an idle server too and the guard
         below reads fresh SLO pressure. *)
      tick_recorder t;
      Option.iter (guard_sweep t ~now) t.guard;
      ignore
        (Evio.Timer_wheel.schedule t.wheel
           ~at:(now +. Obs.Recorder.interval t.recorder)
           T_tick)
  | T_hdr conn ->
      conn.hdr_timer <- None;
      (* Armed only while a head is incomplete; [sync_conn] cancels it
         once the head parses (or fails to). *)
      if conn.alive && conn.state = Reading && conn.inbuf <> "" then begin
        request_timeout t conn;
        sync_conn t conn
      end
  | T_xfer conn -> (
      conn.xfer_timer <- None;
      if conn.alive then
        match t.guard with
        | None -> ()
        | Some g ->
            let moved = conn.sent_bytes + conn.recv_bytes - conn.xfer_mark in
            let cfg = Guard.config g in
            if
              (not (Sendq.is_empty conn.outq))
              && Guard.transfer_stalled cfg ~bytes_moved:moved
                   ~interval:cfg.Guard.transfer_interval
            then begin
              (* Mid-response and moving below the floor: the response
                 header is already on the wire, so there is nothing to
                 send but the close itself. *)
              guard_shed t Guard.Slow_client;
              drop_conn t conn
            end
            else begin
              conn.xfer_mark <- conn.sent_bytes + conn.recv_bytes;
              conn.xfer_timer <-
                Some
                  (Evio.Timer_wheel.schedule t.wheel
                     ~at:(now +. cfg.Guard.transfer_interval)
                     (T_xfer conn))
            end)
  | T_warm -> (
      match (t.warm, t.helper) with
      | Some w, Some helper ->
          Obs.Counter.incr w.w_cycles;
          (* 1. Absorb the demand observed since the last cycle:
             per-path hit deltas plus fresh doorkeeper rejections. *)
          let stats, rejected =
            with_cache_lock t (fun () ->
                ( File_cache.fold_paths t.cache ~init:[] ~f:(fun acc p ks ->
                      (p, ks) :: acc),
                  File_cache.rejected_paths t.cache ))
          in
          Flash_warm.Warm.absorb w.w_absorber w.w_miner ~now ~stats ~rejected;
          (* 2. Re-rank within the pinned-tier byte budget. *)
          let candidates =
            Flash_warm.Miner.rank w.w_miner ~now
              ~top_k:w.w_conf.Flash_warm.Warm.top_k
              ~budget_bytes:w.w_pin_budget
          in
          Obs.Counter.add w.w_ranked (List.length candidates);
          let want = Hashtbl.create 64 in
          List.iter
            (fun (c : Flash_warm.Miner.candidate) ->
              Hashtbl.replace want c.Flash_warm.Miner.c_path ())
            candidates;
          (* 3. Re-pin the hot tier: release pins that fell out of the
             ranking, pin ranked paths already resident (never past the
             byte bound — entry weights include headers the miner does
             not see). *)
          let to_fetch =
            with_cache_lock t (fun () ->
                List.iter
                  (fun p ->
                    if not (Hashtbl.mem want p) then
                      ignore (File_cache.unpin t.cache p))
                  (File_cache.pinned_paths t.cache);
                List.filter
                  (fun (c : Flash_warm.Miner.candidate) ->
                    let p = c.Flash_warm.Miner.c_path in
                    if File_cache.resident t.cache p then begin
                      if
                        (not (File_cache.pinned t.cache p))
                        && File_cache.pinned_bytes t.cache
                           + c.Flash_warm.Miner.c_bytes
                           <= w.w_pin_budget
                      then ignore (File_cache.pin t.cache p);
                      false
                    end
                    else true)
                  candidates)
          in
          (* 4. Prefetch what is ranked but absent, on the helpers' low
             lane — never competing with client-triggered reads — and
             only while the shedder admits queue work at all. *)
          let admit =
            match t.guard with
            | Some g -> Guard.queue_admission g = Guard.Admit
            | None -> true
          in
          if admit then
            List.iter
              (fun (c : Flash_warm.Miner.candidate) ->
                let p = c.Flash_warm.Miner.c_path in
                let in_flight =
                  Hashtbl.fold
                    (fun _ q acc -> acc || String.equal p q)
                    w.w_prefetching false
                in
                if not in_flight then begin
                  let key = w.w_next_key in
                  w.w_next_key <- key - 1;
                  if Helper.dispatch_low helper ~key ~path:p then begin
                    Hashtbl.replace w.w_prefetching key p;
                    Obs.Counter.incr w.w_issued
                  end
                end)
              to_fetch;
          ignore
            (Evio.Timer_wheel.schedule t.wheel
               ~at:(now +. t.config.warm_interval)
               T_warm)
      | _ -> ())

let dispatch_event t (ev : Evio.event) =
  match Hashtbl.find_opt t.fd_owners ev.Evio.fd with
  | None -> ()  (* closed while an earlier event in this batch ran *)
  | Some O_listen -> if ev.Evio.readable then accept_all t
  | Some O_wake -> (
      (try ignore (Unix.read t.wake_read t.loop_scratch 0 64)
       with Unix.Unix_error _ -> ());
      (* Hand-off shards are woken by the acceptor: drain the ring.  A
         poke names no particular fd, so whoever wakes first adopts
         whatever is queued — balance is approximate by design. *)
      match t.role with
      | Shard_member { ring = Some ring; _ } ->
          let rec drain () =
            match Handoff.pop ring with
            | Some fd ->
                ignore (adopt_fd t fd);
                drain ()
            | None -> ()
          in
          drain ()
      | _ -> ())
  | Some O_helper -> handle_helper_completions t
  | Some (O_client conn) ->
      if conn.alive then begin
        if ev.Evio.readable && conn.state = Reading then
          handle_readable t conn;
        if ev.Evio.writable && conn.alive && not (Sendq.is_empty conn.outq)
        then handle_writable t conn;
        sync_conn t conn
      end
  | Some (O_cgi conn) -> (
      if conn.alive then
        match conn.state with
        | Streaming_cgi (fd, pid) ->
            pump_cgi t conn fd pid;
            sync_conn t conn
        | Reading | Waiting_helper _ -> ())

(* Until the wheel's next deadline; forever when none is pending. *)
let wait_timeout wheel ~now =
  Option.map
    (fun d -> Float.max 0. (d -. now))
    (Evio.Timer_wheel.next_deadline wheel)

let run_loop t =
  (* The loop's own fds live in the backend for its whole life.  The
     listen fd may be parked by EMFILE shedding; wake and helper
     interest never changes. *)
  if t.owns_listen then begin
    Evio.Backend.register t.evio t.listen_fd ~read:(not t.accept_gate.paused)
      ~write:false;
    Hashtbl.replace t.fd_owners t.listen_fd O_listen
  end;
  Evio.Backend.register t.evio t.wake_read ~read:true ~write:false;
  Hashtbl.replace t.fd_owners t.wake_read O_wake;
  (match t.helper with
  | Some h ->
      let nfd = Helper.notify_fd h in
      Evio.Backend.register t.evio nfd ~read:true ~write:false;
      Hashtbl.replace t.fd_owners nfd O_helper
  | None -> ());
  let start = t.config.clock () in
  ignore
    (Evio.Timer_wheel.schedule t.wheel
       ~at:(start +. Obs.Recorder.interval t.recorder)
       T_tick);
  (match t.warm with
  | Some _ ->
      (* First mining cycle: almost at once when a startup log was
         mined (its ranking is ready to prefetch before any request),
         else after a full interval of observed demand. *)
      let first =
        match t.config.warm_log with
        | Some _ -> 0.05
        | None -> t.config.warm_interval
      in
      ignore
        (Evio.Timer_wheel.schedule t.wheel ~at:(start +. first) T_warm)
  | None -> ());
  (* Three clock reads an iteration: when the wait returns, when the
     ready fds are dispatched (the timers' [now]), and at the end, which
     is also the next wait's start. *)
  let last = ref start in
  while not t.stopped do
    (* Sleep exactly until the next timer deadline (forever when no
       timers are pending) — readiness and the wake pipe interrupt the
       wait, so the wait has no fixed timeout. *)
    let events =
      Evio.Backend.wait t.evio ~timeout:(wait_timeout t.wheel ~now:!last)
    in
    let woke = t.config.clock () in
    List.iter (dispatch_event t) events;
    let now = t.config.clock () in
    let fired = Evio.Timer_wheel.advance t.wheel ~now in
    Obs.Loopstat.timers_fired t.loopstat (List.length fired);
    List.iter (handle_timer t ~now) fired;
    let fin = t.config.clock () in
    Obs.Loopstat.iteration t.loopstat ~waited:(woke -. !last)
      ~worked:(fin -. woke) ~ready:(List.length events);
    last := fin
  done;
  (* Drain: close everything. *)
  Hashtbl.iter (fun _ conn -> drop_conn t conn) (Hashtbl.copy t.conns)

(* ------------------------------------------------------------------ *)
(* The blocking loop: MP children and MT workers                       *)
(* ------------------------------------------------------------------ *)

(* One connection served to completion on a blocking socket — an MP
   child's or MT worker's whole world (§3.1).  Requests take the event
   modes' own path ([try_parse] → [process_request] → the send queue);
   only the waiting differs: flush the queue until it is empty, pump a
   CGI pipe under its deadline, else read the next request bytes. *)
let serve_blocking t fd ~track ~scratch =
  Unix.clear_nonblock fd;
  match open_conn t fd ~key:0 ~track ~scratch with
  | None -> ()
  | Some conn ->
      (* The guard's header deadline becomes a receive timeout, checked
         per read. *)
      (match t.guard with
      | Some g when (Guard.config g).Guard.header_deadline > 0. -> (
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO
              (Guard.config g).Guard.header_deadline
          with Unix.Unix_error _ | Invalid_argument _ -> ())
      | _ -> ());
      let deadline = t.config.cgi_timeout > 0. in
      while conn.alive do
        if not (Sendq.is_empty conn.outq) then handle_writable t conn
        else
          match conn.state with
          | Streaming_cgi (pfd, pid) -> (
              let left =
                conn.req_start +. t.config.cgi_timeout -. t.config.clock ()
              in
              if deadline && left <= 0. then end_cgi ~kill:true t conn pfd pid
              else
                let wait = if deadline then left else -1. in
                match Unix.select [ pfd ] [] [] wait with
                | [], _, _ -> ()
                | _ -> pump_cgi t conn pfd pid
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception Unix.Unix_error _ ->
                    end_cgi ~kill:true t conn pfd pid)
          | Reading | Waiting_helper _ -> (
              match Unix.read fd scratch 0 (Bytes.length scratch) with
              | 0 -> close_conn t conn
              | n -> on_input t conn n
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  (* Only SO_RCVTIMEO yields EAGAIN here.  A lapse
                     mid-head is a slow sender (408); with no bytes
                     pending it is an idle keep-alive going away. *)
                  if conn.inbuf <> "" then request_timeout t conn
                  else close_conn t conn
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error _ -> close_conn t conn)
      done

(* MP children and MT workers accept through their own backend
   instance: a kernel interest set (epoll) must not be shared across
   forked processes or mutated by several threads, and a per-worker
   backend gives the blocking architectures the same EMFILE shedding
   and the same clean wakeup-on-stop (the wake pipe is registered but
   never drained — stop is terminal, so level-triggered readiness
   rouses every parked worker at once).  Each child or worker names its
   trace track and allocates its read scratch once, here. *)
let worker_loop t =
  let track =
    match t.config.mode with
    | Mp _ -> Printf.sprintf "mp-child-%d" (Unix.getpid ())
    | _ -> Printf.sprintf "mt-worker-%d" (Thread.id (Thread.self ()))
  in
  let scratch = Bytes.create scratch_size in
  let ev = Evio.Backend.create t.config.event_backend in
  let g =
    {
      a_evio = ev;
      a_wheel = Evio.Timer_wheel.create ~now:(t.config.clock ()) ();
      paused = false;
      backoff = accept_backoff_initial;
    }
  in
  let try_accept () =
    Option.iter (fun fd -> serve_blocking t fd ~track ~scratch) (accept_next t g)
  in
  (* Never sleep past a recorder interval: the tick after each wait
     closes windows on an idle worker too. *)
  let interval = Obs.Recorder.interval t.recorder in
  Evio.Backend.register ev t.listen_fd ~read:true ~write:false;
  Evio.Backend.register ev t.wake_read ~read:true ~write:false;
  (try
     while not t.stopped do
       let timeout =
         wait_timeout g.a_wheel ~now:(t.config.clock ())
         |> Option.fold ~none:interval ~some:(Float.min interval)
       in
       let events = Evio.Backend.wait ev ~timeout:(Some timeout) in
       tick_recorder t;
       (* The only timer a worker schedules is [T_resume_accept]. *)
       (match Evio.Timer_wheel.advance g.a_wheel ~now:(t.config.clock ()) with
       | [] -> ()
       | _ :: _ -> if resume_accept t g && not t.stopped then try_accept ());
       if not t.stopped then
         List.iter
           (fun (e : Evio.event) ->
             if e.Evio.fd = t.listen_fd && e.Evio.readable && not g.paused
             then try_accept ())
           events
     done
   with Unix.Unix_error _ -> ());
  Evio.Backend.close ev

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Start one server instance.  [listen] says how it gets its listen
   socket: [`Bind] (the standalone path — bind config.port here),
   [`Fd (fd, port)] (a pre-bound socket: a shard's reuseport listener,
   or the hand-off coordinator's only listener), [`None port] (a
   hand-off shard: fds arrive over the ring; the placeholder socket is
   never bound or watched, it just gives [stop] something to close).
   [shared_budget]/[shared_cache_lock] wire budget-sharing shards to
   one pool and one cache lock. *)
let start_one ?(role = Standalone) ?(listen = `Bind) ?shared_budget
    ?shared_cache_lock ?(accept_strategy = "") config =
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound_port, owns_listen =
    match listen with
    | `Fd (fd, port) -> (fd, port, true)
    | `None port -> (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, port, false)
    | `Bind ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
        Unix.listen fd 128;
        let p =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> config.port
        in
        (fd, p, true)
  in
  let wake_read, wake_write = Unix.pipe () in
  Unix.set_nonblock wake_read;
  let wants_helper =
    match (config.mode, role) with
    | Amped, _ -> true
    | Sharded _, Shard_member _ -> true (* each shard is a full AMPED *)
    | _ -> false
  in
  let helper =
    if wants_helper then
      Some
        (Helper.create ~clock:config.clock ?slow_read:config.slow_read
           ?max_queued:config.guard.Guard.max_helper_queue
           ~helpers:(max 1 config.helpers) ())
    else None
  in
  (* Every mode accepts through a readiness backend now, so the listen
     fd is nonblocking everywhere (a connection that vanishes between
     readiness and accept must yield EAGAIN, not a hang). *)
  Unix.set_nonblock listen_fd;
  (* The tally and the trace ring exist before [t]: closures created
     below capture the final record, so no [{ t with ... }] copy may
     follow.  MP maps one shared row of each per child before forking. *)
  let tally =
    match config.mode with
    | Mp n -> Tally.create ~shared:true ~rows:(max 1 n) ()
    | Amped | Sped | Mt _ | Sharded _ -> Tally.create ~rows:1 ()
  in
  let trace_ring =
    match config.mode with
    | Mp n when config.trace ->
        let capacity = max 1 config.trace_capacity in
        Some (Trace_ring.create ~rows:(max 1 n) ~capacity)
    | _ -> None
  in
  let budget =
    match (shared_budget, role) with
    | Some b, _ -> Some b
    | None, Shard_coordinator _ ->
        None (* the coordinator's cache serves no requests *)
    | None, _ ->
        Option.map
          (fun bytes -> Flash_cache.Budget.create ~bytes)
          config.cache_budget_bytes
  in
  let cache_mutex = Mutex.create () in
  let cache_lock =
    match shared_cache_lock with
    | Some m -> Some m (* budget-sharing shards serialise every store *)
    | None -> ( match config.mode with Mt _ -> Some cache_mutex | _ -> None)
  in
  (* Predictive warming rides the helper pool's low-priority lane, so
     only instances with helpers (AMPED, shard members) build it; the
     sharded coordinator and SPED/MP/MT run unwarmed. *)
  let warm =
    if config.warm && wants_helper then begin
      let wconf =
        {
          Flash_warm.Warm.interval = config.warm_interval;
          budget_frac = config.warm_budget;
          top_k = config.warm_top_k;
          half_life =
            Flash_warm.Warm.default_config.Flash_warm.Warm.half_life;
        }
      in
      let miner =
        Flash_warm.Miner.create ~half_life:wconf.Flash_warm.Warm.half_life ()
      in
      (* Startup mining: fold a previous run's access log so the first
         cycle prefetches before any request arrives. *)
      (match config.warm_log with
      | Some path -> (
          match open_in path with
          | exception Sys_error _ -> ()
          | ic ->
              let now = config.clock () in
              (try
                 while true do
                   ignore
                     (Flash_warm.Miner.observe_line miner ~now (input_line ic))
                 done
               with End_of_file -> ());
              close_in ic)
      | None -> ());
      Some
        {
          w_miner = miner;
          w_absorber = Flash_warm.Warm.create_absorber ();
          w_conf = wconf;
          w_pin_budget =
            Flash_warm.Warm.pin_budget wconf
              ~capacity:config.file_cache_bytes;
          w_next_key = -1;
          w_prefetching = Hashtbl.create 16;
          w_warmed = Hashtbl.create 256;
          w_cycles = Obs.Counter.create ();
          w_ranked = Obs.Counter.create ();
          w_issued = Obs.Counter.create ();
          w_completed = Obs.Counter.create ();
          w_failed = Obs.Counter.create ();
          w_hits_after = Obs.Counter.create ();
        }
    end
    else None
  in
  let evio = Evio.Backend.create config.event_backend in
  let wheel = Evio.Timer_wheel.create ~now:(config.clock ()) () in
  let obs_mutex = Mutex.create () in
  let loopstat = Obs.Loopstat.create ~threshold:config.stall_threshold () in
  let slo =
    Option.map
      (fun (quantile, target_ms) -> Obs.Slo.create ~quantile ~target_ms ())
      config.latency_slo
  in
  let recorder =
    Obs.Recorder.create
      ~capacity:(max 1 config.recorder_capacity)
      ~interval:config.recorder_interval ~now:config.clock
      ~read:(recorder_read ~tally ~obs_mutex ~loopstat ~helper)
      ~on_rollup:(fun r -> Option.iter (fun s -> Obs.Slo.observe s r) slo)
      ()
  in
  let t =
    {
      config;
      listen_fd;
      bound_port;
      cache =
        File_cache.create ~policy:config.cache_policy
          ~admission:config.cache_admission ?budget
          ~capacity_bytes:config.file_cache_bytes ();
      helper;
      wake_read;
      wake_write;
      conns = Hashtbl.create 64;
      by_helper_key = Hashtbl.create 64;
      next_key = 0;
      stopped = false;
      loop_thread = None;
      children = [];
      log_channel =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          config.access_log;
      tally;
      trace_ring;
      cache_mutex;
      obs_mutex;
      registry = Obs.Registry.create ();
      recorder;
      recorder_mutex = Mutex.create ();
      slo;
      gather_writes = config.use_writev && Iovec.have_writev;
      loop_track =
        (match role with
        | Shard_member { id; _ } -> Printf.sprintf "shard-%d" id
        | Standalone | Shard_coordinator _ -> "main-loop");
      loop_scratch = Bytes.create scratch_size;
      tracer =
        (if config.trace then
           Some
             (Obs.Trace.create ~clock:config.clock
                ~capacity:
                  (if Option.is_none trace_ring then
                     max 1 config.trace_capacity
                   else 1)
                ())
         else None);
      slow_channel =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          config.slow_request_log;
      started_at = config.clock ();
      worker_threads = [];
      evio;
      wheel;
      fd_owners = Hashtbl.create 64;
      loopstat;
      accept_gate =
        {
          a_evio = evio;
          a_wheel = wheel;
          paused = false;
          backoff = accept_backoff_initial;
        };
      role;
      shards = [||];
      coord = None;
      domains = [];
      accept_strategy;
      owns_listen;
      handoff_rr = 0;
      handoff_shed = Obs.Counter.create ();
      cache_lock;
      guard =
        (if Guard.enabled config.guard then
           Some (Guard.create ~clock:config.clock config.guard)
         else None);
      warm;
      cgi_inflight = 0;
    }
  in
  register_metrics t;
  (match config.mode with
  | Mp n ->
      let children =
        List.init (max 1 n) (fun i ->
            match Unix.fork () with
            | 0 ->
                (* Child: counts and traces into its own rows; blocking
                   accept loop; never returns. *)
                Tally.claim t.tally i;
                Option.iter (fun ring -> Trace_ring.claim ring i) t.trace_ring;
                (try worker_loop t with _ -> ());
                Stdlib.exit 0
            | pid -> pid)
      in
      t.children <- children
  | Mt n ->
      (* Kernel threads sharing the address space (and the cache, behind
         the mutex) — the paper's MT architecture. *)
      t.worker_threads <-
        List.init (max 1 n) (fun _ ->
            Thread.create (fun () -> try worker_loop t with _ -> ()) ())
  | Amped | Sped | Sharded _ -> ());
  (match role with
  | Standalone -> Log.info (fun m -> m "listening on port %d" bound_port)
  | Shard_member _ | Shard_coordinator _ -> ());
  t

(* Compile-time support is necessary but not sufficient: probe the
   running kernel with a scratch socket before committing to one
   listening socket per domain. *)
let reuseport_works () =
  Evio.have_reuseport ()
  &&
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let ok =
    try
      Evio.set_reuseport s;
      true
    with Failure _ | Unix.Unix_error _ -> false
  in
  (try Unix.close s with Unix.Unix_error _ -> ());
  ok

let start_sharded config n =
  let n = max 1 n in
  let config = { config with mode = Sharded n } in
  (* One pool across every shard's cache when --cache-budget is set;
     one shared cache lock rides along, because a foreign shard's
     rebalance may shed into this shard's store. *)
  let shared_budget =
    Option.map
      (fun bytes -> Flash_cache.Budget.create ~bytes)
      config.cache_budget_bytes
  in
  let shared_cache_lock =
    Option.map (fun _ -> Mutex.create ()) shared_budget
  in
  let bind_listener ~reuseport port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    if reuseport then Evio.set_reuseport fd;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    let p =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    in
    (fd, p)
  in
  let reuseport = (not config.force_handoff) && reuseport_works () in
  let strategy = if reuseport then "reuseport" else "handoff" in
  let ring = if reuseport then None else Some (Handoff.create ~capacity:1024) in
  (* Bind the first listener either way: under reuseport it becomes
     shard 0's (a bound-but-never-accepted reuseport socket would
     blackhole its share of connections, so the coordinator must not
     keep one); under hand-off it is the coordinator's only listener. *)
  let fd0, bound = bind_listener ~reuseport config.port in
  let shards =
    Array.init n (fun i ->
        let listen =
          if reuseport then
            if i = 0 then `Fd (fd0, bound)
            else `Fd (fst (bind_listener ~reuseport:true bound), bound)
          else `None bound
        in
        start_one
          ~role:(Shard_member { id = i; ring })
          ~listen ?shared_budget ?shared_cache_lock ~accept_strategy:strategy
          config)
  in
  let coord =
    start_one
      ~role:(Shard_coordinator { ring })
      ~listen:(if reuseport then `None bound else `Fd (fd0, bound))
      ~accept_strategy:strategy config
  in
  coord.shards <- shards;
  coord.coord <- Some coord;
  Array.iter
    (fun sh ->
      sh.shards <- shards;
      sh.coord <- Some coord)
    shards;
  Log.info (fun m ->
      m "listening on port %d (%d domains, %s accepts)" bound n strategy);
  coord

let start config =
  match config.mode with
  | Sharded n -> start_sharded config n
  | Amped | Sped | Mp _ | Mt _ -> start_one config

let port t = t.bound_port
let mode t = t.config.mode

let sharding_info t =
  match shard_peers t with
  | None -> None
  | Some shards -> Some (Array.length shards, t.accept_strategy)

(* The MP parent and the MT main thread serve nothing: workers count
   and trace into shared state.  No event loop (its wakeups are not loop
   statistics), it sleeps a recorder interval at a time, closing windows
   on an idle server, until the wake pipe signals [stop]. *)
let park_loop t =
  Evio.Backend.register t.evio t.wake_read ~read:true ~write:false;
  let timeout = Some (Obs.Recorder.interval t.recorder) in
  while not t.stopped do
    (* The wake pipe is left undrained: MT workers park on it too. *)
    ignore (Evio.Backend.wait t.evio ~timeout);
    tick_recorder t
  done

let run t =
  match t.config.mode with
  | Mp _ | Mt _ -> park_loop t
  | Sharded _ -> (
      match t.role with
      | Shard_coordinator _ ->
          (* One domain per shard, each running a full AMPED loop; the
             coordinator's own loop accepts-and-hands-off (hand-off
             strategy) or just parks on its wake pipe (reuseport, where
             the kernel balances accepts into the shards' sockets). *)
          t.domains <-
            Array.to_list
              (Array.map
                 (fun sh -> Domain.spawn (fun () -> run_loop sh))
                 t.shards);
          run_loop t
      | Standalone | Shard_member _ -> run_loop t)
  | Amped | Sped -> run_loop t

let start_background config =
  let t = start config in
  t.loop_thread <- Some (Thread.create run t);
  t

let shutdown_flag t =
  t.stopped <- true;
  try ignore (Unix.write t.wake_write (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

(* Release one instance's resources.  Only called once its loop has
   exited (loop thread joined / domain joined). *)
let teardown t =
  (match t.helper with Some h -> Helper.shutdown h | None -> ());
  (* MT workers park in their backend's wait with the wake pipe in
     the interest set, so the wake byte already roused them — no need
     to poke them with throwaway connections. *)
  List.iter (fun th -> try Thread.join th with _ -> ()) t.worker_threads;
  Evio.Backend.close t.evio;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.log_channel with Some oc -> close_out_noerr oc | None -> ());
  (match t.slow_channel with Some oc -> close_out_noerr oc | None -> ());
  (try Unix.close t.wake_read with Unix.Unix_error _ -> ());
  try Unix.close t.wake_write with Unix.Unix_error _ -> ()

let stop t =
  if not t.stopped then begin
    shutdown_flag t;
    (* Sharded coordinator: flag every shard before joining anything so
       all the loops unwind in parallel. *)
    (match t.role with
    | Shard_coordinator _ -> Array.iter shutdown_flag t.shards
    | Standalone | Shard_member _ -> ());
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      t.children;
    (match t.loop_thread with Some th -> Thread.join th | None -> ());
    (* Shard domains were spawned by the coordinator's [run] (on the
       loop thread just joined, under [start_background]), so the list
       is final by now; join them before touching their fds. *)
    List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    t.domains <- [];
    (match t.role with
    | Shard_coordinator _ -> Array.iter teardown t.shards
    | Standalone | Shard_member _ -> ());
    teardown t
  end

(* The programmatic view: the page's named fields, read off the same
   walk (sharded: the aggregate). *)
let stats t =
  let summary = fst (collect_for t) in
  let iv ?labels name = Obs.Registry.int_value ?labels summary name in
  let fl = [ ("cache", "file") ] in
  {
    requests = iv "flash_http_requests_total";
    connections = iv "flash_connections_total";
    errors = iv "flash_http_errors_total";
    cache_hits = iv ~labels:fl "flash_cache_hits_total";
    cache_misses = iv ~labels:fl "flash_cache_misses_total";
    helper_jobs = iv "flash_helper_jobs_total";
    cache_evictions = iv ~labels:fl "flash_cache_evictions_total";
    helper_queue_depth = iv "flash_helper_queue_depth";
    active_connections = iv "flash_active_connections";
    loop_stalls = iv "flash_loop_stalls_total";
    loop_max_stall =
      Obs.Registry.float_value summary "flash_loop_max_stall_seconds";
    writev_calls = iv "flash_writev_calls_total";
    write_calls = iv "flash_write_calls_total";
    bytes_copied = iv "flash_bytes_copied_total";
    mapped_bytes = iv "flash_cache_mapped_bytes";
    event_backend = Evio.name t.config.event_backend;
    loop_wakeups = iv "flash_loop_wakeups_total";
    timer_fires = iv "flash_loop_timer_fires_total";
    (* The coordinator's ring sheds are the one count outside the walk. *)
    accept_emfile =
      iv "flash_accept_emfile_total"
      + Obs.Counter.value (Option.value t.coord ~default:t).handoff_shed;
  }

let latency t =
  Obs.Registry.hist_value (fst (collect_for t)) "flash_request_duration_seconds"
  |> Option.value ~default:(Obs.Histogram.create ())

let helper_job_latency t = Option.map Helper.job_latency t.helper

let tracing_enabled t = t.tracer <> None

(* SIGUSR1 / shutdown dump: flush the partial window, render the whole
   ring. *)
let recorder_dump t = with_recorder t Obs.Recorder.dump_json
