(* The /server-status views: pure renderers over one registry walk.
   Every value shown is a sample of the walk; the only other inputs are
   the facts the walk does not carry ([stall_threshold] and, sharded,
   [sharding]).  The text and JSON views print the same values under the
   same names, and both end with the walk's flat (key, value) pairs. *)

module R = Obs.Registry

type sharding = { accept : string; serving_shard : int; handoff_shed : int }

(* JSON has no NaN/Infinity; empty-histogram percentiles render as 0. *)
let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "0"
let ms x = if Float.is_finite x then 1000. *. x else 0.

let histogram_json h =
  Printf.sprintf
    {|{"count":%d,"mean":%s,"p50":%s,"p90":%s,"p99":%s,"max":%s}|}
    (Obs.Histogram.count h)
    (num (ms (Obs.Histogram.mean h)))
    (num (ms (Obs.Histogram.percentile h 50.)))
    (num (ms (Obs.Histogram.percentile h 90.)))
    (num (ms (Obs.Histogram.percentile h 99.)))
    (num (ms (Obs.Histogram.max h)))

let histogram_text h =
  Printf.sprintf "count %d, mean %.3f ms, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms"
    (Obs.Histogram.count h)
    (ms (Obs.Histogram.mean h))
    (ms (Obs.Histogram.percentile h 50.))
    (ms (Obs.Histogram.percentile h 90.))
    (ms (Obs.Histogram.percentile h 99.))
    (ms (Obs.Histogram.max h))

(* Flat (key, rendered-number) pairs for every sample in the walk: the
   "metrics" object of the JSON view and the metrics section of the
   text view print these pairs verbatim — the anchor the no-drift
   regression test holds onto.  Histograms flatten to _count/_sum. *)
let sample_kvs samples =
  List.concat_map
    (fun (s : R.sample) ->
      let key suffix =
        match s.R.labels with
        | [] -> s.R.name ^ suffix
        | ls ->
            Printf.sprintf "%s%s{%s}" s.R.name suffix
              (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls))
      in
      match s.R.value with
      | R.Counter n -> [ (key "", string_of_int n) ]
      | R.Gauge v -> [ (key "", num v) ]
      | R.Info -> [ (key "", "1") ]
      | R.Hist h ->
          [
            (key "_count", string_of_int (Obs.Histogram.count h));
            (key "_sum", num (Obs.Histogram.sum h));
          ])
    samples

(* Info series carry configuration in their labels: the [key] label of
   the first series called [name]. *)
let label samples name key =
  match List.find_opt (fun (s : R.sample) -> s.R.name = name) samples with
  | Some s -> Option.value (List.assoc_opt key s.R.labels) ~default:""
  | None -> ""

(* The sharding block, rendered key-for-key in both views: (json string,
   text lines).  Each shard's row is read off its [shard]-labelled
   series. *)
let sharding_views sharding all =
  match sharding with
  | None -> ("null", [ "sharding:     none" ])
  | Some { accept; serving_shard; handoff_shed } ->
      let ids =
        List.sort_uniq compare
          (List.filter_map
             (fun (s : R.sample) ->
               if s.R.name = "flash_config_info" then
                 Option.map int_of_string (List.assoc_opt "shard" s.R.labels)
               else None)
             all)
      in
      let rows =
        List.map
          (fun i ->
            let shard = ("shard", string_of_int i) in
            let mine =
              List.filter (fun (s : R.sample) -> List.mem shard s.R.labels) all
            in
            ( i,
              label mine "flash_config_info" "backend",
              R.int_value ~labels:[ shard ] mine "flash_http_requests_total",
              R.int_value ~labels:[ shard ] mine "flash_active_connections" ))
          ids
      in
      let json =
        Printf.sprintf
          {|{"domains":%d,"accept":%s,"shard":%d,"handoff_shed":%d,"shards":[%s]}|}
          (List.length ids) (Obs.Json.str accept) serving_shard handoff_shed
          (String.concat ","
             (List.map
                (fun (i, backend, requests, active) ->
                  Printf.sprintf
                    {|{"shard":%d,"backend":%s,"requests":%d,"active":%d}|} i
                    (Obs.Json.str backend) requests active)
                rows))
      in
      let text =
        Printf.sprintf
          "sharding:     %d domains, %s accepts, serving shard %d, %d \
           handoff shed"
          (List.length ids) accept serving_shard handoff_shed
        :: List.map
             (fun (i, backend, requests, active) ->
               Printf.sprintf
                 "shard %d:      %s backend, %d requests, %d active" i backend
                 requests active)
             rows
      in
      (json, text)

let slo_state = function 0 -> "healthy" | 1 -> "degraded" | _ -> "breached"

let body ~stall_threshold ~sharding ~json (samples, all) =
  let iv ?labels name = R.int_value ?labels samples name in
  let fv ?labels name = R.float_value ?labels samples name in
  (* An optional subsystem's block shows exactly when its series do. *)
  let has name = R.find samples name <> None in
  let hist name =
    Option.value (R.hist_value samples name) ~default:(Obs.Histogram.create ())
  in
  let config key = label samples "flash_config_info" key in
  let server_name = label samples "flash_build_info" "server" in
  let mode = config "mode" in
  let backend = config "backend" in
  let fl = [ ("cache", "file") ] in
  let latency = hist "flash_request_duration_seconds" in
  let uptime = fv "flash_uptime_seconds" in
  let requests = iv "flash_http_requests_total" in
  let errors = iv "flash_http_errors_total" in
  let connections = iv "flash_connections_total" in
  let active = iv "flash_active_connections" in
  let sv_writev = iv "flash_writev_calls_total" in
  let sv_writes = iv "flash_write_calls_total" in
  let sv_copied = iv "flash_bytes_copied_total" in
  let sv_sent = iv "flash_bytes_sent_total" in
  let cache_hits = iv ~labels:fl "flash_cache_hits_total" in
  let cache_misses = iv ~labels:fl "flash_cache_misses_total" in
  let cache_evictions = iv ~labels:fl "flash_cache_evictions_total" in
  let cache_admitted = iv ~labels:fl "flash_cache_admitted_total" in
  let cache_rejected = iv ~labels:fl "flash_cache_rejected_total" in
  let cache_entries = iv ~labels:fl "flash_cache_entries" in
  let cache_resident = iv ~labels:fl "flash_cache_resident_bytes" in
  let cache_capacity = iv ~labels:fl "flash_cache_capacity_bytes" in
  let mapped = iv "flash_cache_mapped_bytes" in
  let by_class cls = iv ~labels:[ ("class", cls) ] "flash_http_responses_total" in
  let policy_s = config "cache_policy" in
  let admission_s = config "cache_admission" in
  let send_path_s = config "send_path" in
  let wakeups = iv "flash_loop_wakeups_total" in
  (* A ratio of two counters, so it stays right when shards are summed. *)
  let ready_per_wakeup =
    if wakeups = 0 then 0.
    else float_of_int (iv "flash_loop_ready_fds_total") /. float_of_int wakeups
  in
  let sheds =
    List.filter_map
      (fun (s : R.sample) ->
        match (s.R.name, s.R.labels, s.R.value) with
        | "flash_guard_shed_total", [ ("reason", r) ], R.Counter n -> Some (r, n)
        | _ -> None)
      samples
  in
  let shed_total = List.fold_left (fun a (_, n) -> a + n) 0 sheds in
  let slo_quantile = label samples "flash_slo_info" "quantile" in
  let slo_target = label samples "flash_slo_info" "target_ms" in
  let sharding_json, sharding_lines = sharding_views sharding all in
  let kvs = sample_kvs all in
  if json then
    let helper_json =
      if not (has "flash_helper_jobs_total") then "null"
      else
        Printf.sprintf
          {|{"jobs":%d,"queue_depth":%d,"queue_depth_hwm":%d,"queued":%d,"in_flight":%d,"rejected":%d,"job_latency_ms":%s}|}
          (iv "flash_helper_jobs_total")
          (iv "flash_helper_queue_depth")
          (iv "flash_helper_queue_depth_hwm")
          (iv "flash_helper_queued")
          (iv "flash_helper_in_flight")
          (iv "flash_helper_rejected_total")
          (histogram_json (hist "flash_helper_job_duration_seconds"))
    in
    let trace_json =
      if not (has "flash_traces_completed_total") then {|{"enabled":false}|}
      else
        Printf.sprintf
          {|{"enabled":true,"completed":%d,"evicted":%d,"capacity":%d}|}
          (iv "flash_traces_completed_total")
          (iv "flash_traces_evicted_total")
          (iv "flash_trace_ring_capacity")
    in
    let health_json =
      if not (has "flash_slo_state") then "null"
      else
        Printf.sprintf
          {|{"state":%s,"burn":%s,"quantile":%s,"target_ms":%s,"windows":%d}|}
          (Obs.Json.str (slo_state (iv "flash_slo_state")))
          (num (fv "flash_slo_burn_ratio"))
          slo_quantile slo_target (iv "flash_slo_windows")
    in
    let file_cache_json =
      Printf.sprintf
        {|{"policy":%s,"admission":%s,"capacity":%d,"entries":%d,"resident_bytes":%d,"hits":%d,"misses":%d,"evictions":%d,"admitted":%d,"rejected":%d}|}
        (Obs.Json.str policy_s) (Obs.Json.str admission_s) cache_capacity
        cache_entries cache_resident cache_hits cache_misses cache_evictions
        cache_admitted cache_rejected
    in
    let guard_json =
      if not (has "flash_guard_state") then "null"
      else
        Printf.sprintf
          {|{"level":%d,"tracked_peers":%d,"shed_total":%d,"shed":{%s}}|}
          (iv "flash_guard_state")
          (iv "flash_guard_tracked_peers")
          shed_total
          (String.concat ","
             (List.map
                (fun (reason, n) ->
                  Printf.sprintf "%s:%d" (Obs.Json.str reason) n)
                sheds))
    in
    let warm_json =
      if not (has "flash_warm_cycles_total") then "null"
      else
        Printf.sprintf
          {|{"cycles":%d,"candidates_ranked":%d,"prefetch_issued":%d,"prefetch_completed":%d,"prefetch_failed":%d,"prefetch_rejected":%d,"hits_after_warm":%d,"pinned_bytes":%d,"pinned_entries":%d,"tracked_paths":%d}|}
          (iv "flash_warm_cycles_total")
          (iv "flash_warm_candidates_ranked_total")
          (iv "flash_warm_prefetch_issued_total")
          (iv "flash_warm_prefetch_completed_total")
          (iv "flash_warm_prefetch_failed_total")
          (iv "flash_warm_prefetch_rejected_total")
          (iv "flash_warm_hits_after_warm_total")
          (iv "flash_warm_pinned_bytes")
          (iv "flash_warm_pinned_entries")
          (iv "flash_warm_tracked_paths")
    in
    let metrics_json =
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Obs.Json.str k ^ ":" ^ v) kvs)
      ^ "}"
    in
    Printf.sprintf
      (* The sharding block sits at the tail (after the flat counters)
         so naive first-match scrapers — flash_bench's before/after
         delta — still find the aggregate "requests"/"backend" keys
         first, not a per-shard entry's. *)
      {|{"server":%s,"mode":%s,"uptime_s":%s,"requests":%d,"connections":%d,"active_connections":%d,"errors":%d,"responses":{"2xx":%d,"3xx":%d,"4xx":%d,"5xx":%d},"cache":{"hits":%d,"misses":%d,"evictions":%d,"bytes":%d,"mapped_bytes":%d,"entries":%d},"caches":{"file":%s},"send":{"path":%s,"writev_calls":%d,"write_calls":%d,"bytes_copied":%d,"bytes_sent":%d},"latency_ms":%s,"loop":{"backend":%s,"stalls":%d,"threshold_ms":%s,"max_stall_ms":%s,"iterations":%d,"wakeups":%d,"ready_per_wakeup":%s,"wait_s":%s,"work_s":%s,"timer_fires":%d,"timers_pending":%d,"accept_emfile":%d,"accept_paused":%b},"helper":%s,"trace":%s,"health":%s,"guard":%s,"warm":%s,"sharding":%s,"metrics":%s}|}
      (Obs.Json.str server_name) (Obs.Json.str mode) (num uptime) requests
      connections active errors (by_class "2xx") (by_class "3xx")
      (by_class "4xx") (by_class "5xx") cache_hits cache_misses
      cache_evictions cache_resident mapped cache_entries file_cache_json
      (Obs.Json.str send_path_s) sv_writev sv_writes sv_copied sv_sent
      (histogram_json latency) (Obs.Json.str backend)
      (iv "flash_loop_stalls_total")
      (num (ms stall_threshold))
      (num (fv "flash_loop_max_stall_seconds" *. 1000.))
      (iv "flash_loop_iterations_total")
      wakeups (num ready_per_wakeup)
      (num (fv "flash_loop_wait_seconds"))
      (num (fv "flash_loop_work_seconds"))
      (iv "flash_loop_timer_fires_total")
      (iv "flash_timers_pending")
      (iv "flash_accept_emfile_total")
      (fv "flash_accept_paused" > 0.)
      helper_json trace_json health_json guard_json warm_json sharding_json
      metrics_json
    ^ "\n"
  else begin
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    line "%s status" server_name;
    line "mode:         %s" mode;
    List.iter (fun s -> line "%s" s) sharding_lines;
    line "uptime:       %.1f s" uptime;
    line "requests:     %d (%d errors)" requests errors;
    line "responses:    %d 2xx, %d 3xx, %d 4xx, %d 5xx" (by_class "2xx")
      (by_class "3xx") (by_class "4xx") (by_class "5xx");
    line "connections:  %d total, %d active" connections active;
    line "cache:        %d hits, %d misses, %d evictions, %d bytes in %d entries"
      cache_hits cache_misses cache_evictions cache_resident cache_entries;
    line "mapped:       %d bytes" mapped;
    line
      "file cache:   %s policy, %d/%d bytes in %d entries, %d hits, %d misses, %d evictions, %d admitted, %d rejected (%s admission)"
      policy_s cache_resident cache_capacity cache_entries cache_hits
      cache_misses cache_evictions cache_admitted cache_rejected admission_s;
    line "send:         %s path, %d writev, %d write, %d bytes copied, %d bytes sent"
      send_path_s sv_writev sv_writes sv_copied sv_sent;
    line "latency:      %s" (histogram_text latency);
    line "loop:         %d stalls over %.1f ms (max %.3f ms, %d iterations)"
      (iv "flash_loop_stalls_total")
      (ms stall_threshold)
      (fv "flash_loop_max_stall_seconds" *. 1000.)
      (iv "flash_loop_iterations_total");
    line
      "events:       %s backend, %d wakeups (%.2f ready fds/wakeup), %.3f s waiting / %.3f s working"
      backend wakeups ready_per_wakeup
      (fv "flash_loop_wait_seconds")
      (fv "flash_loop_work_seconds");
    line "timers:       %d fired, %d pending"
      (iv "flash_loop_timer_fires_total")
      (iv "flash_timers_pending");
    line "accept:       %d shed on EMFILE%s"
      (iv "flash_accept_emfile_total")
      (if fv "flash_accept_paused" > 0. then " (listen paused)" else "");
    if not (has "flash_traces_completed_total") then line "tracing:      off"
    else
      line "tracing:      %d traces (%d evicted, ring %d)"
        (iv "flash_traces_completed_total")
        (iv "flash_traces_evicted_total")
        (iv "flash_trace_ring_capacity");
    if not (has "flash_helper_jobs_total") then line "helpers:      none"
    else begin
      line
        "helpers:      %d jobs, queue depth %d (hwm %d; %d queued + %d in \
         flight), %d rejected"
        (iv "flash_helper_jobs_total")
        (iv "flash_helper_queue_depth")
        (iv "flash_helper_queue_depth_hwm")
        (iv "flash_helper_queued")
        (iv "flash_helper_in_flight")
        (iv "flash_helper_rejected_total");
      line "helper jobs:  %s"
        (histogram_text (hist "flash_helper_job_duration_seconds"))
    end;
    if not (has "flash_slo_state") then line "health:       no SLO configured"
    else
      line "health:       %s (burn %.2f over %d windows, p%s <= %s ms)"
        (slo_state (iv "flash_slo_state"))
        (fv "flash_slo_burn_ratio")
        (iv "flash_slo_windows")
        slo_quantile slo_target;
    if not (has "flash_guard_state") then line "guard:        off"
    else begin
      line "guard:        level %d, %d peers tracked, %d shed"
        (iv "flash_guard_state")
        (iv "flash_guard_tracked_peers")
        shed_total;
      line "guard shed:   %s"
        (String.concat ", "
           (List.map (fun (reason, n) -> Printf.sprintf "%d %s" n reason) sheds))
    end;
    if not (has "flash_warm_cycles_total") then line "warming:      off"
    else begin
      line
        "warming:      %d cycles, %d ranked, %d prefetches (%d done, %d \
         failed, %d rejected), %d hits after warm"
        (iv "flash_warm_cycles_total")
        (iv "flash_warm_candidates_ranked_total")
        (iv "flash_warm_prefetch_issued_total")
        (iv "flash_warm_prefetch_completed_total")
        (iv "flash_warm_prefetch_failed_total")
        (iv "flash_warm_prefetch_rejected_total")
        (iv "flash_warm_hits_after_warm_total");
      line "hot tier:     %d bytes pinned in %d entries (%d paths tracked)"
        (iv "flash_warm_pinned_bytes")
        (iv "flash_warm_pinned_entries")
        (iv "flash_warm_tracked_paths")
    end;
    line "metrics:";
    List.iter (fun (k, v) -> line "  %s %s" k v) kvs;
    Buffer.contents b
  end

let wants_json (req : Http.Request.t) =
  match req.Http.Request.query with
  | Some "json" | Some "format=json" -> true
  | Some _ | None -> false

(* ?window=N on the status path selects the flight-recorder view. *)
let window (req : Http.Request.t) =
  match req.Http.Request.query with
  | Some q when String.length q > 7 && String.sub q 0 7 = "window=" -> (
      match int_of_string_opt (String.sub q 7 (String.length q - 7)) with
      | Some n when n > 0 -> Some n
      | _ -> None)
  | Some _ | None -> None
