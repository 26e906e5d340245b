(* Timeline export: trace one disk-bound request through the simulator
   under SPED and AMPED and emit Chrome trace-event JSON for each —
   the same format the live server's /server-trace serves.  Loaded in
   Perfetto, the two files show the architectural difference directly:
   under AMPED the disk-read span sits on the "helper" track while the
   main loop stays free; under SPED it sits on the main-loop track,
   which is exactly the stall.

     dune exec bench/main.exe -- timeline
     # writes timeline_sped.json and timeline_amped.json *)

let request_path files =
  (* The largest file: several chunks of cold reads, a clearly visible
     disk phase. *)
  let best = ref files.(0) in
  Array.iter
    (fun (f : Simos.Fs.file) ->
      if f.Simos.Fs.size > !best.Simos.Fs.size then best := f)
    files;
  !best.Simos.Fs.path

let run_one (config : Flash.Config.t) ~out =
  let engine = Sim.Engine.create ~seed:11 () in
  let profile = Simos.Os_profile.freebsd in
  let kernel = Simos.Kernel.create engine profile in
  let fileset =
    Workload.Fileset.generate (Workload.Fileset.cs_like ~files:64 ~seed:3)
  in
  let files = Workload.Fileset.install fileset (Simos.Kernel.fs kernel) in
  let srv = Flash.Server.start kernel { config with Flash.Config.trace = true } in
  (* No prewarm: the request must go to (simulated) disk. *)
  let path = request_path files in
  let net = Simos.Kernel.net kernel in
  ignore
    (Sim.Proc.spawn engine ~name:"client" (fun () ->
         let c =
           Simos.Net.connect net
             ~link_rate:profile.Simos.Os_profile.lan_rate
             ~rtt:profile.Simos.Os_profile.rtt
         in
         Simos.Net.client_send c
           ("GET " ^ path ^ " HTTP/1.0\r\nHost: sim.example\r\n\r\n");
         (match Simos.Net.client_await_response c with `Ok | `Closed -> ());
         Simos.Net.client_close c));
  ignore (Sim.Engine.run ~until:30. engine);
  match Flash.Server.tracer srv with
  | None -> Format.printf "  %s: tracing disabled?!@." config.Flash.Config.label
  | Some tracer ->
      List.iter
        (fun data -> Format.printf "  %s@." (Obs.Trace.summary data))
        (Obs.Trace.snapshot tracer);
      let oc = open_out out in
      output_string oc (Obs.Trace.to_chrome_json (Obs.Trace.snapshot tracer));
      output_char oc '\n';
      close_out oc;
      Format.printf "  wrote %s (load it in Perfetto)@." out

let run () =
  Format.printf "@.== Timeline: one disk-bound request, SPED vs AMPED ==@.";
  Format.printf "SPED (disk read stalls the main loop):@.";
  run_one Flash.Config.flash_sped ~out:"timeline_sped.json";
  Format.printf "AMPED (disk read on a helper; loop stays free):@.";
  run_one Flash.Config.flash ~out:"timeline_amped.json"
