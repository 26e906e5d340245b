(* Multicore sharding: the bounded hand-off ring (qcheck: no fd lost,
   none delivered twice, occupancy bounded), concurrent Budget
   accounting (qcheck: parallel charge/release conserves the total,
   shed never over-frees), and the Sharded server end to end — both
   accept strategies, per-shard + aggregate telemetry, and the
   text/JSON no-drift rule for the sharding block.  Runs real domains
   and loopback sockets. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Handoff = Flash_live.Handoff
module Budget = Flash_cache.Budget
module Guard = Flash_guard.Guard
open Test_status

(* ------------------------------------------------------------------ *)
(* Hand-off ring                                                       *)
(* ------------------------------------------------------------------ *)

let test_ring_basics () =
  (* The capacity-1 degenerate case must be rounded up, not allowed:
     with one slot every push would claim the ticket and overwrite an
     unconsumed element (regression — this once hung the qcheck below
     whenever it drew capacity 1, the consumer waiting forever for
     overwritten items). *)
  let tiny = Handoff.create ~capacity:1 in
  Alcotest.(check int) "minimum capacity is 2" 2 (Handoff.capacity tiny);
  Alcotest.(check bool) "tiny push 1" true (Handoff.push tiny 1);
  Alcotest.(check bool) "tiny push 2" true (Handoff.push tiny 2);
  Alcotest.(check bool) "tiny full refused" false (Handoff.push tiny 3);
  Alcotest.(check (option int)) "tiny fifo 1" (Some 1) (Handoff.pop tiny);
  Alcotest.(check (option int)) "tiny fifo 2" (Some 2) (Handoff.pop tiny);
  let r = Handoff.create ~capacity:3 in
  Alcotest.(check int) "capacity rounds up" 4 (Handoff.capacity r);
  Alcotest.(check (option int)) "empty pops None" None (Handoff.pop r);
  for i = 1 to 4 do
    Alcotest.(check bool) "push fits" true (Handoff.push r i)
  done;
  Alcotest.(check bool) "full push refused" false (Handoff.push r 5);
  Alcotest.(check int) "length at capacity" 4 (Handoff.length r);
  (* FIFO when single-threaded. *)
  List.iter
    (fun want -> Alcotest.(check (option int)) "fifo" (Some want) (Handoff.pop r))
    [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "drained" None (Handoff.pop r);
  (* Slots recycle across laps. *)
  for lap = 1 to 3 do
    Alcotest.(check bool) "lap push" true (Handoff.push r lap);
    Alcotest.(check (option int)) "lap pop" (Some lap) (Handoff.pop r)
  done

(* One producer domain pushes 0..n-1 (spinning when the ring is full);
   [consumers] domains pop until all items are out.  Every item must
   arrive exactly once, and no observation may exceed the capacity.

   The waits must be cooperative, not hard spins: on a box with fewer
   cores than domains, a domain spinning on a peer's progress can hold
   the only core through entire scheduler timeslices while the peer —
   or a stop-the-world barrier waiting on it — starves, livelocking
   the property.  A short relax followed by a real sleep (a blocking
   section, so the GC never waits on a sleeper) keeps the ring under
   contention while letting starved peers run.  Production code never
   spins on the ring — a full push sheds the connection, and shards
   pop once per wake-pipe poke — so the hazard is purely the test's. *)
let ring_arbitrary =
  QCheck.(
    triple (int_range 1 300) (* items *)
      (int_range 1 32) (* requested capacity *)
      (int_range 1 3) (* consumer domains, capped by the core count *))

let cooperative_relax tries =
  incr tries;
  if !tries land 63 = 0 then Unix.sleepf 0.0002 else Domain.cpu_relax ()

let prop_ring_delivers_exactly_once (items, capacity, consumers) =
  let consumers =
    max 1 (min consumers (Domain.recommended_domain_count () - 1))
  in
  let ring = Handoff.create ~capacity in
  let received = Atomic.make 0 in
  let over_occupancy = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        let tries = ref 0 in
        for i = 0 to items - 1 do
          while not (Handoff.push ring i) do
            cooperative_relax tries
          done;
          if Handoff.length ring > Handoff.capacity ring then
            Atomic.set over_occupancy true
        done)
  in
  let consumer_domains =
    List.init consumers (fun _ ->
        Domain.spawn (fun () ->
            let got = ref [] in
            let tries = ref 0 in
            let rec loop () =
              if Atomic.get received < items then begin
                (match Handoff.pop ring with
                | Some v ->
                    got := v :: !got;
                    ignore (Atomic.fetch_and_add received 1)
                | None -> cooperative_relax tries);
                loop ()
              end
            in
            loop ();
            !got))
  in
  Domain.join producer;
  let all = List.concat_map Domain.join consumer_domains in
  let sorted = List.sort compare all in
  sorted = List.init items Fun.id && not (Atomic.get over_occupancy)

(* ------------------------------------------------------------------ *)
(* Concurrent Budget accounting                                        *)
(* ------------------------------------------------------------------ *)

(* Parallel paired charge/release from several domains: the pool must
   conserve the total exactly (end at zero) and never go negative. *)
let budget_arbitrary =
  QCheck.(pair (int_range 2 4) (small_list (int_range 1 1000)))

let prop_budget_conserves (domains, amounts) =
  QCheck.assume (amounts <> []);
  let b = Budget.create ~bytes:max_int in
  let negative_seen = Atomic.make false in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.iter
              (fun amount ->
                Budget.charge b amount;
                if Budget.used b < 0 then Atomic.set negative_seen true;
                Budget.release b amount)
              amounts))
  in
  List.iter Domain.join workers;
  Budget.used b = 0 && not (Atomic.get negative_seen)

(* Shedding under contention: members mirror their resident bytes in
   atomics, shed releases exactly what a charge added — so whatever
   interleaving happens, the pool must equal the members' total at the
   end (a shed that over-freed would leave it below, a lost release
   above), and rebalance must land at or under capacity while anything
   is sheddable. *)
let shed_arbitrary = QCheck.(pair (int_range 2 4) (int_range 10 80))

let prop_budget_shed_exact (domains, ops) =
  let chunk = 100 in
  let cap = chunk * 5 in
  let b = Budget.create ~bytes:cap in
  let members =
    List.init domains (fun i ->
        let resident = Atomic.make 0 in
        Budget.register b
          ~name:(Printf.sprintf "m%d" i)
          ~usage:(fun () -> Atomic.get resident)
          ~shed:(fun () ->
            (* Pop one chunk if this member holds one. *)
            let rec try_shed () =
              let cur = Atomic.get resident in
              if cur < chunk then false
              else if Atomic.compare_and_set resident cur (cur - chunk) then begin
                Budget.release b chunk;
                true
              end
              else try_shed ()
            in
            try_shed ());
        resident)
  in
  let workers =
    List.mapi
      (fun _ resident ->
        Domain.spawn (fun () ->
            for _ = 1 to ops do
              ignore (Atomic.fetch_and_add resident chunk);
              Budget.charge b chunk
            done))
      members
  in
  List.iter Domain.join workers;
  Budget.rebalance b;
  let total = List.fold_left (fun a r -> a + Atomic.get r) 0 members in
  Budget.used b = total && Budget.used b >= 0 && Budget.used b <= cap

(* ------------------------------------------------------------------ *)
(* The sharded server                                                  *)
(* ------------------------------------------------------------------ *)

(* [~breached_slo:true] adds a latency SLO no request can meet, judged
   every 50 ms, so the health families exist and every shard that has
   served traffic burns at 1. *)
let with_sharded ?(force_handoff = false) ?cache_budget_bytes ?guard
    ?(breached_slo = false) n f =
  let docroot = Test_live.make_docroot () in
  let base = Server.default_config ~docroot in
  let config =
    {
      base with
      Server.mode = Server.Sharded n;
      force_handoff;
      cache_budget_bytes;
      guard = Option.value guard ~default:base.Server.guard;
      latency_slo = (if breached_slo then Some (99., 0.001) else None);
      recorder_interval =
        (if breached_slo then 0.05 else base.Server.recorder_interval);
    }
  in
  with_config config f

(* A connection cap no sequential client reaches: the guard families
   exist, and nothing is refused. *)
let loose_guard = { Guard.default_config with Guard.max_conns_per_ip = Some 64 }

let drive port n =
  for _ = 1 to n do
    let r = get port "/hello.txt" in
    Alcotest.(check int) "hello 200" 200 r.Client.status;
    Alcotest.(check string) "hello body" "hello live world" r.Client.body
  done

(* [n] requests spread over several recorder windows. *)
let drive_windows port n =
  for i = 1 to n do
    drive port 1;
    if i mod 5 = 0 then Thread.delay 0.06
  done

(* /server-trace renders every shard's ring, whichever shard serves it:
   the traces of all [n] hello requests, however the accepts spread. *)
let check_trace_union server port n =
  let hello (d : Obs.Trace.trace_data) = d.Obs.Trace.label = "GET /hello.txt" in
  ignore
    (Test_trace.await_traces server (fun snap ->
         List.length (List.filter hello snap) >= n));
  let r = get port "/server-trace" in
  Alcotest.(check int) "every shard's traces served" n
    (List.length (Test_trace.parse_spans r.Client.body "GET /hello.txt"))

let check_sharding_block server j ~domains =
  let strategy =
    match Server.sharding_info server with
    | Some (_, s) -> s
    | None -> Alcotest.fail "sharded server reports no sharding_info"
  in
  let sharding = member "sharding" j in
  Alcotest.(check int) "domains" domains (to_int (member "domains" sharding));
  Alcotest.(check string)
    "accept strategy" strategy
    (to_str (member "accept" sharding));
  let shards =
    match member "shards" sharding with
    | Arr l -> l
    | _ -> Alcotest.fail "sharding.shards not an array"
  in
  Alcotest.(check int) "shard entries" domains (List.length shards);
  List.iteri
    (fun i sh ->
      Alcotest.(check int) "shard id" i (to_int (member "shard" sh));
      Alcotest.(check bool)
        "backend named" true
        (String.length (to_str (member "backend" sh)) > 0))
    shards;
  (* The aggregate is the per-shard sum, read in the same snapshot. *)
  let sum =
    List.fold_left (fun a sh -> a + to_int (member "requests" sh)) 0 shards
  in
  Alcotest.(check int) "aggregate = sum of shards" sum
    (to_int (member "requests" j))

let test_sharded_reuseport () =
  with_sharded 2 (fun server port ->
      drive port 12;
      let stats = await_stats server (fun s -> s.Server.requests >= 12) in
      Alcotest.(check bool)
        "stats aggregate requests" true
        (stats.Server.requests >= 12);
      Alcotest.(check bool)
        "stats aggregate connections" true
        (stats.Server.connections >= 12);
      check_trace_union server port 12;
      let j = get_status_json port in
      check_sharding_block server j ~domains:2;
      Alcotest.(check string)
        "mode string" "sharded:2"
        (to_str (member "mode" j)))

let test_sharded_handoff () =
  with_sharded ~force_handoff:true 2 (fun server port ->
      (match Server.sharding_info server with
      | Some (2, "handoff") -> ()
      | Some (n, s) -> Alcotest.failf "expected 2/handoff, got %d/%s" n s
      | None -> Alcotest.fail "no sharding_info");
      drive port 12;
      let stats = await_stats server (fun s -> s.Server.requests >= 12) in
      Alcotest.(check bool)
        "handoff served all" true
        (stats.Server.requests >= 12);
      check_trace_union server port 12;
      let j = get_status_json port in
      check_sharding_block server j ~domains:2)

let test_sharded_shared_budget () =
  (* One Budget.t across both shards' caches: foreign-shard sheds run
     behind the shared cache lock, and the server keeps serving. *)
  with_sharded ~cache_budget_bytes:(64 * 1024) 2 (fun server port ->
      for _ = 1 to 6 do
        Alcotest.(check int) "index" 200 (get port "/index.html").Client.status;
        Alcotest.(check int) "hello" 200 (get port "/hello.txt").Client.status;
        Alcotest.(check int) "big" 200 (get port "/big.bin").Client.status
      done;
      let stats = await_stats server (fun s -> s.Server.requests >= 18) in
      Alcotest.(check bool) "all served" true (stats.Server.requests >= 18))

(* Aggregated with max across shards, not summed: uptime, states and
   levels, fractions, window counts, maxima and high-water marks.  Info
   series dedupe (each shard's is 1), which the max also expresses. *)
let max_gauges =
  [
    "flash_uptime_seconds";
    "flash_slo_state";
    "flash_slo_burn_ratio";
    "flash_slo_windows";
    "flash_guard_state";
    "flash_loop_max_stall_seconds";
    "flash_helper_queue_depth_hwm";
  ]

(* /metrics of a sharded server: strictly valid exposition, per-shard
   series under the shard label, and every series without the label
   that has shard-labelled siblings equal to their aggregate at
   snapshot: counters, histogram rows and gauges sum, except the
   [max_gauges] and info series, which take the max. *)
let test_sharded_metrics () =
  with_sharded ~breached_slo:true ~guard:loose_guard 2 (fun server port ->
      drive_windows port 20;
      ignore (await_stats server (fun s -> s.Server.requests >= 20));
      let r = get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 r.Client.status;
      let open Obs.Exposition in
      let families =
        match validate r.Client.body with
        | Ok fs -> fs
        | Error msg -> Alcotest.failf "sharded exposition invalid: %s" msg
      in
      let sharded s = List.mem_assoc "shard" s.s_labels in
      let checked = ref [] in
      List.iter
        (fun f ->
          let use_max =
            List.mem f.f_name max_gauges
            || String.ends_with ~suffix:"_info" f.f_name
          in
          List.iter
            (fun agg ->
              let siblings =
                List.filter_map
                  (fun s ->
                    if
                      s.s_name = agg.s_name && sharded s
                      && List.remove_assoc "shard" s.s_labels = agg.s_labels
                    then Some s.s_value
                    else None)
                  f.f_series
              in
              if siblings <> [] then begin
                let expected =
                  if use_max then List.fold_left Float.max neg_infinity siblings
                  else List.fold_left ( +. ) 0. siblings
                in
                Alcotest.(check (float (1e-6 *. Float.max 1. expected)))
                  (Printf.sprintf "aggregate %s{%s}" agg.s_name
                     (String.concat ","
                        (List.map (fun (k, v) -> k ^ "=" ^ v) agg.s_labels)))
                  expected agg.s_value;
                checked := agg.s_name :: !checked
              end)
            (List.filter (fun s -> not (sharded s)) f.f_series))
        families;
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " aggregate checked") true (List.mem name !checked))
        [
          "flash_http_requests_total";
          "flash_loop_ready_fds_total";
          "flash_loop_max_stall_seconds";
          "flash_slo_burn_ratio";
          "flash_guard_shed_total";
          "flash_request_duration_seconds_bucket";
        ];
      let requests_series =
        List.concat_map
          (fun f -> if f.f_name = "flash_http_requests_total" then f.f_series else [])
          families
      in
      Alcotest.(check int) "one series per shard" 2
        (List.length (List.filter sharded requests_series)))

(* The PR 7 no-drift rule extended to sharded views: the text page's
   metrics section and the JSON "metrics" object list the same keys in
   the same order — shard-labeled and aggregate rows included — and the
   JSON view's named fields (health and guard too) equal the aggregate
   series on the same page, whichever shard renders it. *)
let test_sharded_views_never_drift () =
  with_sharded ~breached_slo:true ~guard:loose_guard 2 (fun _server port ->
      drive_windows port 20;
      let text = (get port "/server-status").Client.body in
      let j = get_status_json port in
      check_named_fields j;
      let burn = to_num (member "burn" (member "health" j)) in
      Alcotest.(check bool)
        (Printf.sprintf "burn %g is a fraction" burn)
        true
        (burn > 0. && burn <= 1.);
      let json_keys =
        match member "metrics" j with
        | Obj kv -> List.map fst kv
        | _ -> Alcotest.fail "metrics not an object"
      in
      let text_keys =
        let lines = String.split_on_char '\n' text in
        let rec after_header = function
          | [] -> []
          | "metrics:" :: rest -> rest
          | _ :: rest -> after_header rest
        in
        List.filter_map
          (fun line ->
            if String.length line > 2 && String.sub line 0 2 = "  " then
              let body = String.sub line 2 (String.length line - 2) in
              match String.rindex_opt body ' ' with
              | Some i -> Some (String.sub body 0 i)
              | None -> None
            else None)
          (after_header lines)
      in
      Alcotest.(check (list string))
        "text and JSON metrics agree" json_keys text_keys;
      (* And the text view carries the sharding lines. *)
      Alcotest.(check bool)
        "text sharding line" true
        (Helpers.contains text ~affix:"sharding:     2 domains");
      Alcotest.(check bool)
        "text per-shard lines" true
        (Helpers.contains text ~affix:"shard 0:"
        && Helpers.contains text ~affix:"shard 1:"))

(* The HTTP/1.1 conformance matrix extended to Sharded: the same wire
   bytes as AMPED for the whole torture table.  Lives here rather than
   in test_http11 because this suite must run last — OCaml 5 forbids
   Unix.fork once any domain has ever been spawned, so the MP entries
   of the matrix (and every other fork test) must precede the first
   Domain.spawn in the binary. *)
let test_sharded_byte_identity () =
  Test_http11.byte_identity_against_amped
    [ ("SHARDED", Server.Sharded 2) ]

(* ------------------------------------------------------------------ *)
(* Guard × sharding                                                    *)
(* ------------------------------------------------------------------ *)

(* Issue a one-shot GET, tolerating the guard's own refusals while a
   freed connection slot propagates (disconnects are processed
   asynchronously by the owning shard). *)
let rec get_admitted ?(tries = 40) port path =
  match get port path with
  | r when r.Client.status = 200 -> r
  | r when tries = 0 -> r
  | _ ->
      Thread.delay 0.05;
      get_admitted ~tries:(tries - 1) port path
  | exception e ->
      if tries = 0 then raise e
      else begin
        Thread.delay 0.05;
        get_admitted ~tries:(tries - 1) port path
      end

(* Each shard owns its own guard: with a per-peer cap of one connection
   and two shards, six silent connections from one peer can hold at most
   two slots (one per shard, fewer if the kernel hashes them onto the
   same shard) — everyone else is answered 429 at the door.  Closing the
   holders frees the slots. *)
let test_sharded_guard_conn_cap () =
  with_sharded
    ~guard:{ Guard.default_config with Guard.max_conns_per_ip = Some 1 }
    2
    (fun _server port ->
      let fds =
        List.init 6 (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd)
      in
      (* Let every shard write its verdict: refused fds now hold a 429
         response and EOF; admitted ones are silent. *)
      Thread.delay 0.5;
      let buf = Bytes.create 4096 in
      let refused =
        List.fold_left
          (fun acc fd ->
            Unix.set_nonblock fd;
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> acc + 1
            | n ->
                let payload = Bytes.sub_string buf 0 n in
                Alcotest.(check bool)
                  "refusal is a 429" true
                  (Helpers.contains payload ~affix:" 429 Too Many Requests");
                Alcotest.(check bool)
                  "refusal advises Retry-After" true
                  (Helpers.contains payload ~affix:"Retry-After:");
                acc + 1
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                acc
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc + 1)
          0 fds
      in
      Alcotest.(check bool)
        (Printf.sprintf "at most one slot per shard (refused %d of 6)" refused)
        true (refused >= 4);
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
      (* Slots free once the owning shards process the disconnects. *)
      let r = get_admitted port "/hello.txt" in
      Alcotest.(check int) "slot freed after close" 200 r.Client.status)

(* Guard telemetry under sharding: flash_guard_* series carry the shard
   label, the unlabeled aggregate equals the per-shard sum in the same
   scrape, and the status JSON's guard block agrees with itself (its
   shed dict sums to its shed_total). *)
let test_sharded_guard_metrics () =
  with_sharded
    ~guard:{ Guard.default_config with Guard.max_conns_per_ip = Some 1 }
    2
    (fun _server port ->
      (* Provoke a few conn-cap sheds: pairs of simultaneous silent
         connections from one peer, second of the pair refused whenever
         both hash to the same shard's singleton slot. *)
      let provoke () =
        let fds =
          List.init 4 (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              fd)
        in
        Thread.delay 0.3;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
      in
      provoke ();
      let metrics = (get_admitted port "/metrics").Client.body in
      (match Obs.Exposition.validate metrics with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "guarded sharded exposition invalid: %s" msg);
      let lines = String.split_on_char '\n' metrics in
      let sample_value line =
        match String.rindex_opt line ' ' with
        | Some i ->
            int_of_float
              (float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> Alcotest.failf "unparseable sample line %S" line
      in
      let shard_sum = ref 0
      and aggregate = ref 0
      and shard_series = ref 0 in
      List.iter
        (fun l ->
          if String.starts_with ~prefix:"flash_guard_shed_total{" l then
            if Helpers.contains l ~affix:"shard=" then begin
              incr shard_series;
              shard_sum := !shard_sum + sample_value l
            end
            else aggregate := !aggregate + sample_value l)
        lines;
      (* Two shards times eight pre-registered reasons. *)
      Alcotest.(check int) "shard-labeled shed series" 16 !shard_series;
      Alcotest.(check int) "aggregate equals per-shard sum" !shard_sum
        !aggregate;
      Alcotest.(check bool) "sheds recorded" true (!shard_sum >= 1);
      Alcotest.(check bool)
        "state gauge carries the shard label" true
        (Helpers.contains metrics ~affix:"flash_guard_state{shard=");
      (* The serving shard's guard block is internally consistent.
         Fetch via [get_admitted]: the provoking peer's freed conn slot
         propagates asynchronously, so a prompt fetch can still be 429. *)
      let j = parse_json (get_admitted port "/server-status?json").Client.body in
      let guard = member "guard" j in
      (match guard with
      | Null -> Alcotest.fail "sharded guard JSON block missing"
      | _ -> ());
      let shed_kvs =
        match member "shed" guard with
        | Obj kv -> kv
        | _ -> Alcotest.fail "guard.shed not an object"
      in
      Alcotest.(check int) "shed dict sums to shed_total"
        (to_int (member "shed_total" guard))
        (List.fold_left (fun a (_, v) -> a + to_int v) 0 shed_kvs))

(* Unsharded servers must say so, in both views. *)
let test_unsharded_views () =
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun server port ->
      Alcotest.(check (option (pair int string)))
        "no sharding_info" None
        (Server.sharding_info server);
      let j = get_status_json port in
      (match member "sharding" j with
      | Null -> ()
      | _ -> Alcotest.fail "unsharded JSON sharding should be null");
      let text = (get port "/server-status").Client.body in
      Alcotest.(check bool)
        "text says none" true
        (Helpers.contains text ~affix:"sharding:     none"))

let suite =
  [
    Alcotest.test_case "hand-off ring basics" `Quick test_ring_basics;
    Helpers.qcheck_case ~count:30 ~name:"ring delivers exactly once"
      ring_arbitrary prop_ring_delivers_exactly_once;
    Helpers.qcheck_case ~count:30 ~name:"budget conserves under domains"
      budget_arbitrary prop_budget_conserves;
    Helpers.qcheck_case ~count:20 ~name:"budget shed never over-frees"
      shed_arbitrary prop_budget_shed_exact;
    Alcotest.test_case "sharded serves over reuseport" `Quick
      test_sharded_reuseport;
    Alcotest.test_case "sharded serves over hand-off ring" `Quick
      test_sharded_handoff;
    Alcotest.test_case "shards share one cache budget" `Quick
      test_sharded_shared_budget;
    Alcotest.test_case "sharded /metrics validates and aggregates" `Quick
      test_sharded_metrics;
    Alcotest.test_case "sharded views never drift" `Quick
      test_sharded_views_never_drift;
    Alcotest.test_case "HTTP/1.1 byte-identity vs AMPED" `Quick
      test_sharded_byte_identity;
    Alcotest.test_case "per-shard guard enforces conn caps" `Quick
      test_sharded_guard_conn_cap;
    Alcotest.test_case "sharded guard metrics aggregate" `Quick
      test_sharded_guard_metrics;
    Alcotest.test_case "unsharded views say none" `Quick test_unsharded_views;
  ]
