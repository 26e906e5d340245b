(* Seeded inputs for one benchmark workload: a docroot of random-byte
   files and the request stream the load generator replays.

   File sizes, paths, popularity (Zipf, rank = file index) and the
   request-kind mix come from lib/workload, so the live traffic follows
   the same models as the simulator's.  The server only ever sees these
   files and these requests.

   The file population (sizes and paths) is part of a workload's
   definition and uses a fixed seed: with Zipf popularity on ranked
   files and heavy-tailed sizes, a per-seed population would move the
   bytes per request by tens of percent from seed to seed, which would
   swamp the run-to-run spread the benchmark is there to resolve.  The
   seed argument draws the request stream, the request-kind mix and the
   file contents.

   Output directory layout:
     docroot/...      the files (content: splitmix64 stream of seed+index)
     files.tsv        index <TAB> size <TAB> url path, one line per file
     plan.txt         file index <SPACE> kind (0 plain, 1 If-None-Match,
                      2 Range 0-1023), one line per request
     hot.txt          file indices of the warm-up pass, one per line

   Usage: mkinput.exe --workload NAME --seed N --requests N --out DIR *)

type shape = {
  spec : Workload.Fileset.spec;
  alpha : float;
  conditional : float;
  range : float;
  hot_bytes : int;  (** warm-up covers the top ranks up to this many bytes *)
}

let mb = 1024 * 1024
let population_seed = 1999

let shape_of = function
  | "hot-small" | "conn-churn-mp" as w ->
      let mixed = w = "hot-small" in
      {
        spec = Workload.Fileset.owlnet_like ~files:1000 ~seed:population_seed;
        alpha = 1.0;
        conditional = (if mixed then 0.15 else 0.);
        range = (if mixed then 0.05 else 0.);
        hot_bytes = max_int;
      }
  | "cold-churn" ->
      {
        spec = Workload.Fileset.cs_like ~files:4000 ~seed:population_seed;
        alpha = 0.8;
        conditional = 0.;
        range = 0.;
        hot_bytes = 32 * mb;
      }
  | w -> failwith ("unknown workload " ^ w)

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Content of file [index]: a splitmix64 stream keyed by seed and index,
   so two different files never share a prefix. *)
let write_file path ~seed ~index ~size =
  let buf = Bytes.create size in
  let state = ref (mix64 (Int64.of_int ((seed * 1_000_003) + index))) in
  let i = ref 0 in
  while !i < size do
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let v = mix64 !state in
    let n = min 8 (size - !i) in
    for k = 0 to n - 1 do
      Bytes.unsafe_set buf (!i + k)
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))
    done;
    i := !i + n
  done;
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and requests = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N seed");
      ("--requests", Arg.Set_int requests, "N request-stream length");
      ("--out", Arg.Set_string out, "DIR output directory");
    ]
    (fun a -> raise (Arg.Bad a))
    "mkinput.exe --workload NAME --seed N --requests N --out DIR";
  if !out = "" || !requests <= 0 then failwith "--out and --requests are required";
  let shape = shape_of !workload in
  let seed = !seed in
  let fileset = Workload.Fileset.generate shape.spec in
  let trace =
    Workload.Trace.generate fileset ~length:!requests ~alpha:shape.alpha
      ~seed:(seed + 1)
  in
  let mix =
    Workload.Reqmix.generate ~length:!requests ~conditional:shape.conditional
      ~range:shape.range ~gzip:0. ~seed:(seed + 2)
  in
  let docroot = Filename.concat !out "docroot" in
  mkdir_p docroot;
  let paths = fileset.Workload.Fileset.paths
  and sizes = fileset.Workload.Fileset.sizes in
  Array.iteri
    (fun index url ->
      let file = docroot ^ url in
      mkdir_p (Filename.dirname file);
      write_file file ~seed ~index ~size:sizes.(index))
    paths;
  let with_out name f =
    let oc = open_out (Filename.concat !out name) in
    f oc;
    close_out oc
  in
  with_out "files.tsv" (fun oc ->
      Array.iteri (fun i url -> Printf.fprintf oc "%d\t%d\t%s\n" i sizes.(i) url) paths);
  with_out "plan.txt" (fun oc ->
      for i = 0 to !requests - 1 do
        let kind =
          match Workload.Reqmix.kind mix i with
          | Workload.Reqmix.Conditional -> 1
          | Workload.Reqmix.Range -> 2
          | Workload.Reqmix.Plain | Workload.Reqmix.Gzip -> 0
        in
        Printf.fprintf oc "%d %d\n" trace.Workload.Trace.requests.(i) kind
      done);
  (* Warm-up set: every file the stream touches, most popular first, up
     to the workload's byte cap. *)
  let touched = Array.make (Array.length paths) false in
  Array.iter (fun i -> touched.(i) <- true) trace.Workload.Trace.requests;
  with_out "hot.txt" (fun oc ->
      let bytes = ref 0 in
      Array.iteri
        (fun i hit ->
          if hit && !bytes + sizes.(i) <= shape.hot_bytes then begin
            bytes := !bytes + sizes.(i);
            Printf.fprintf oc "%d\n" i
          end)
        touched)
